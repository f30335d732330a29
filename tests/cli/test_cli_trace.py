"""Tests for the CLI tracing flags: ``batch/search --trace-out``."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli.main import main
from repro.generators import fixed_ls_workload
from repro.io import save_problem


@pytest.fixture
def problem_files(tmp_path):
    paths = []
    for seed in range(2):
        problem = fixed_ls_workload(16, 4, core_count=4, seed=seed).to_problem()
        path = tmp_path / f"p{seed}.json"
        save_problem(problem, path)
        paths.append(str(path))
    return paths


class TestBatchTraceOut:
    def test_writes_valid_chrome_trace(self, tmp_path, problem_files, capsys):
        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "batch",
                *problem_files,
                "--workers", "1",
                "--quiet",
                "--trace-out", str(trace_path),
            ]
        )
        assert code == 0
        document = json.loads(trace_path.read_text())
        assert obs.validate_chrome_trace(document) == []
        names = {
            event["name"]
            for event in document["traceEvents"]
            if event["ph"] == "X"
        }
        assert {"cli.batch", "batch.run", "job.run", "kernel.compile"} <= names
        assert "trace written to" in capsys.readouterr().out

    def test_tracing_disabled_after_run(self, tmp_path, problem_files):
        main(
            [
                "batch",
                *problem_files,
                "--workers", "1",
                "--quiet",
                "--trace-out", str(tmp_path / "t.json"),
            ]
        )
        assert not obs.tracing_enabled()

    def test_no_trace_file_without_flag(self, tmp_path, problem_files):
        assert main(["batch", *problem_files, "--workers", "1", "--quiet"]) == 0
        assert not (tmp_path / "trace.json").exists()


class TestSearchTraceOut:
    def test_search_trace_covers_generations(self, tmp_path, problem_files, capsys):
        trace_path = tmp_path / "search-trace.json"
        code = main(
            [
                "search",
                problem_files[0],
                "--kind", "horizon",
                "--workers", "1",
                "--quiet",
                "--trace-out", str(trace_path),
            ]
        )
        assert code == 0
        document = json.loads(trace_path.read_text())
        assert obs.validate_chrome_trace(document) == []
        names = {
            event["name"]
            for event in document["traceEvents"]
            if event["ph"] == "X"
        }
        assert {"cli.search", "search.minimal_horizon", "search.generation"} <= names
