"""Tests for the ``repro-rta`` command line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli.main import build_parser, main
from repro.io import load_problem, load_schedule

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_module_entry_point_runs_without_warnings(self):
        """``python -m repro.cli.main`` imports its module once: no runpy warning."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli.main", "--version"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == 0
        assert result.stderr == ""
        assert result.stdout.startswith("repro-rta ")

    def test_cli_package_does_not_import_its_main_module(self):
        """``repro.cli.main`` is loaded only when asked for, so ``-m`` runs it once."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", "import sys, repro.cli; print('repro.cli.main' in sys.modules)"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


class TestInfo:
    def test_lists_algorithms_and_arbiters(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "incremental" in output
        assert "round-robin" in output


class TestGenerateAnalyzeCompare:
    def generate(self, tmp_path, extra=()):
        path = tmp_path / "problem.json"
        code = main(
            [
                "generate",
                "--mode", "LS",
                "--parameter", "4",
                "--tasks", "24",
                "--cores", "4",
                "--seed", "1",
                "--output", str(path),
                *extra,
            ]
        )
        assert code == 0
        return path

    def test_generate_writes_a_loadable_problem(self, tmp_path, capsys):
        path = self.generate(tmp_path)
        problem = load_problem(path)
        assert problem.task_count == 24
        assert problem.platform.core_count == 4
        assert "24-task problem" in capsys.readouterr().out

    def test_generate_with_alternative_arbiter(self, tmp_path):
        path = self.generate(tmp_path, extra=("--arbiter", "fifo"))
        assert load_problem(path).arbiter.name == "fifo"

    def test_analyze_reports_and_saves(self, tmp_path, capsys):
        problem_path = self.generate(tmp_path)
        schedule_path = tmp_path / "schedule.json"
        csv_path = tmp_path / "schedule.csv"
        code = main(
            [
                "analyze", str(problem_path),
                "--output", str(schedule_path),
                "--csv", str(csv_path),
                "--no-gantt",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "SCHEDULABLE" in output
        schedule = load_schedule(schedule_path)
        assert schedule.schedulable
        assert csv_path.read_text(encoding="utf-8").startswith("task,")

    def test_analyze_with_fixedpoint(self, tmp_path, capsys):
        problem_path = self.generate(tmp_path)
        assert main(["analyze", str(problem_path), "--algorithm", "fixedpoint", "--no-gantt"]) == 0
        assert "fixedpoint" in capsys.readouterr().out

    def test_analyze_missing_file_returns_error_code(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_compare(self, tmp_path, capsys):
        problem_path = self.generate(tmp_path)
        assert main(["compare", str(problem_path)]) == 0
        output = capsys.readouterr().out
        assert "incremental" in output
        assert "fixedpoint" in output


class TestSearch:
    def generate(self, tmp_path):
        path = tmp_path / "problem.json"
        assert (
            main(
                [
                    "generate",
                    "--mode", "LS",
                    "--parameter", "4",
                    "--tasks", "24",
                    "--cores", "4",
                    "--seed", "1",
                    "--output", str(path),
                ]
            )
            == 0
        )
        return path

    def test_minimal_horizon_search(self, tmp_path, capsys):
        problem_path = self.generate(tmp_path)
        capsys.readouterr()
        assert main(["search", str(problem_path), "--kind", "horizon", "--workers", "1"]) == 0
        assert "minimal feasible horizon" in capsys.readouterr().out

    def test_memory_search_writes_result_json(self, tmp_path, capsys):
        problem_path = self.generate(tmp_path)
        result_path = tmp_path / "result.json"
        code = main(
            [
                "search", str(problem_path),
                "--kind", "memory",
                "--horizon", "1000000",
                "--max-factor", "4",
                "--tolerance", "0.5",
                "--workers", "1",
                "--quiet",
                "--output", str(result_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "largest schedulable memory demand scaling" in output
        assert "probe evaluations" in output
        document = json.loads(result_path.read_text(encoding="utf-8"))
        assert document["kind"] == "memory"
        assert document["breaking_factor"] > 0
        assert document["probes"]

    def test_wcet_search_serial_mode(self, tmp_path, capsys):
        problem_path = self.generate(tmp_path)
        code = main(
            [
                "search", str(problem_path),
                "--kind", "wcet",
                "--horizon", "1000000",
                "--max-factor", "4",
                "--tolerance", "0.5",
                "--serial",
                "--quiet",
            ]
        )
        assert code == 0
        assert "largest schedulable WCETs scaling" in capsys.readouterr().out

    def test_sensitivity_without_horizon_is_a_usage_error(self, tmp_path, capsys):
        problem_path = self.generate(tmp_path)
        assert main(["search", str(problem_path), "--kind", "memory", "--quiet"]) == 1
        assert "--horizon" in capsys.readouterr().err

    def test_infeasible_baseline_exit_code(self, tmp_path, capsys):
        problem_path = self.generate(tmp_path)
        code = main(
            [
                "search", str(problem_path),
                "--kind", "memory",
                "--horizon", "1",  # nothing fits in one cycle
                "--tolerance", "0.5",
                "--workers", "1",
                "--quiet",
            ]
        )
        assert code == 2
        assert "infeasible at the unscaled baseline" in capsys.readouterr().out


class TestBenchCommands:
    def test_figure3_single_small_panel(self, capsys, monkeypatch):
        # shrink the quick profile so the CLI test stays fast
        import repro.bench.figure3 as figure3

        monkeypatch.setattr(figure3, "_QUICK_SIZES", (16, 32))
        monkeypatch.setattr(figure3, "_QUICK_BASELINE_SIZES", (16, 32))
        assert main(["figure3", "--panel", "LS4", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "Figure 3 panel LS4" in output
        assert "paper exponents" in output
