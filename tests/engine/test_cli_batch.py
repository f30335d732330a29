"""Tests for the ``repro batch`` CLI subcommand."""

from __future__ import annotations

import csv

import pytest

from repro.cli.main import main
from repro.io import load_batch_results


@pytest.fixture
def problem_files(tmp_path):
    paths = []
    for seed in (1, 2, 3):
        path = tmp_path / f"problem{seed}.json"
        code = main(
            [
                "generate",
                "--mode", "LS",
                "--parameter", "4",
                "--tasks", "24",
                "--cores", "4",
                "--seed", str(seed),
                "--output", str(path),
            ]
        )
        assert code == 0
        paths.append(path)
    return paths


def test_batch_serial(tmp_path, problem_files, capsys):
    code = main(["batch", *map(str, problem_files), "--workers", "1", "--quiet"])
    assert code == 0
    output = capsys.readouterr().out
    assert "3 problem(s) over 3 structure(s): 3 analysed" in output


def test_batch_parallel_with_outputs(tmp_path, problem_files, capsys):
    json_out = tmp_path / "batch.json"
    csv_out = tmp_path / "batch.csv"
    code = main(
        [
            "batch", *map(str, problem_files),
            "--workers", "2",
            "--quiet",
            "--output", str(json_out),
            "--csv", str(csv_out),
        ]
    )
    assert code == 0
    schedules = load_batch_results(json_out)
    assert len(schedules) == 3
    assert all(schedule.schedulable for schedule in schedules)
    with csv_out.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0][0] == "problem"
    assert len(rows) == 4


def test_batch_cache_dir_makes_second_run_free(tmp_path, problem_files, capsys):
    cache_dir = tmp_path / "cache"
    args = [
        "batch", *map(str, problem_files),
        "--workers", "1",
        "--quiet",
        "--cache-dir", str(cache_dir),
    ]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args) == 0
    output = capsys.readouterr().out
    assert "0 analysed" in output
    assert "3 served from cache" in output


def test_batch_partial_failure_reports_completed_work(tmp_path, problem_files, capsys):
    """One failing problem must not discard the others' results or outputs."""
    import json as json_module

    from repro.core.analyzer import register_algorithm
    from tests.engine.test_batch import _fragile_analysis

    register_algorithm("fragile-cli-test", _fragile_analysis, overwrite=True)
    # give one problem a horizon so the fragile algorithm rejects it
    bad = tmp_path / "bad.json"
    document = json_module.loads(problem_files[0].read_text())
    document["horizon"] = 10_000_000
    bad.write_text(json_module.dumps(document))
    out = tmp_path / "partial.json"
    code = main(
        ["batch", str(bad), *map(str, problem_files[1:]), "--workers", "1", "--quiet",
         "--algorithm", "fragile-cli-test", "--output", str(out)]
    )
    assert code == 1
    output = capsys.readouterr().out
    assert "1 of 3 problem(s) FAILED" in output
    assert "2 completed" in output
    assert len(load_batch_results(out)) == 2  # completed schedules still written


def test_batch_progress_reports_elapsed_and_eta(tmp_path, problem_files, capsys):
    """Satellite: `repro batch` surfaces ETA from ProgressEvent like `repro search`."""
    code = main(["batch", *map(str, problem_files), "--workers", "1"])
    assert code == 0
    err = capsys.readouterr().err
    assert "elapsed" in err  # progress line carries timing, not just raw counts
    assert "[3/3]" in err  # ... and still the raw counts
    # the ETA fragment appears on intermediate updates (not the final one)
    assert ", eta ~" in err


def test_batch_quiet_suppresses_progress(tmp_path, problem_files, capsys):
    code = main(["batch", *map(str, problem_files), "--workers", "1", "--quiet"])
    assert code == 0
    assert "elapsed" not in capsys.readouterr().err


def test_batch_uses_selected_algorithm(tmp_path, problem_files, capsys):
    code = main(
        ["batch", str(problem_files[0]), "--workers", "1", "--quiet",
         "--algorithm", "fixedpoint", "--output", str(tmp_path / "out.json")]
    )
    assert code == 0
    (schedule,) = load_batch_results(tmp_path / "out.json")
    assert schedule.algorithm == "fixedpoint"
