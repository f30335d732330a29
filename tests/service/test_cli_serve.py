"""Tests for the ``repro serve`` CLI subcommand.

The full-stack path — a real subprocess bound to an ephemeral port, driven
over real HTTP by the :class:`ServiceClient` — runs through
``scripts/serve_smoke.py``, the same entry point the CI smoke job uses.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli.main import build_parser, main
from repro.service import AnalysisServer

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SMOKE = REPO_ROOT / "scripts" / "serve_smoke.py"


class TestArguments:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8517
        assert args.workers is None
        assert args.max_pending == 1024

    def test_serve_custom_arguments(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--port", "0",
                "--workers", "4",
                "--cache-dir", "/tmp/cache",
                "--algorithm", "fixedpoint",
                "--verbose",
            ]
        )
        assert args.port == 0
        assert args.workers == 4
        assert args.algorithm == "fixedpoint"
        assert args.verbose

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["batch", "p.json", "--endpoints", "hostA:8517"], "--endpoints"),
            (["batch", "p.json", "--max-in-flight", "4"], "--max-in-flight"),
            (["search", "p.json", "--endpoints", "hostA:8517"], "--endpoints"),
            (["cluster", "--endpoints", "hostA:8517"], "'cluster'"),
            (["serve", "--backend", "process"], "--backend"),
            (["serve", "--recycle-after", "1"], "--recycle-after"),
            (["scaling", "--workers", "2"], "--workers"),
        ],
        ids=[
            "batch-endpoints",
            "batch-max-in-flight",
            "search-endpoints",
            "cluster",
            "serve-backend",
            "serve-recycle-after",
            "scaling-workers",
        ],
    )
    def test_retired_cluster_options_are_usage_errors(self, argv, fragment, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [1, 2])
    def test_serve_starts_at_every_worker_count(self, workers, monkeypatch, capsys):
        """One worker (no pool) and a pool both boot and report their size."""

        def interrupt(self, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(AnalysisServer, "serve_forever", interrupt)
        assert main(["serve", "--port", "0", "--workers", str(workers)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("serving on http://127.0.0.1:")
        assert f"runtime: workers={workers} cache=in-memory " in captured.err


class TestAnnouncement:
    def test_serving_line_is_one_write(self, monkeypatch):
        """A reader polling stdout never sees the ``serving on`` line torn.

        Under an unbuffered stdout every ``write`` call is one system call,
        so the line must leave the process in a single write.
        """

        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)
                return len(text)

            def flush(self):
                pass

        def interrupt(self, *args, **kwargs):
            raise KeyboardInterrupt

        recorder = Recorder()
        monkeypatch.setattr(AnalysisServer, "serve_forever", interrupt)
        monkeypatch.setattr(sys, "stdout", recorder)
        assert main(["serve", "--port", "0", "--workers", "1"]) == 0
        announcements = [text for text in recorder.writes if "serving on" in text]
        assert len(announcements) == 1
        assert re.fullmatch(r"serving on http://127\.0\.0\.1:\d+\n", announcements[0])

    def test_serving_line_is_the_first_stdout_line_with_a_pool_and_a_cache(
        self, monkeypatch, tmp_path
    ):
        """The command a benchmark boots: process pool, workers, cache dir."""
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)
                return len(text)

            def flush(self):
                pass

        def interrupt(self, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(AnalysisServer, "serve_forever", interrupt)
        monkeypatch.setattr(sys, "stdout", Recorder())
        argv = ["serve", "--port", "0", "--workers", "2", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert writes
        assert re.fullmatch(r"serving on http://127\.0\.0\.1:\d+\n", writes[0])


class TestSmoke:
    def test_serve_smoke_script_passes(self):
        """Boot the real CLI in a subprocess and exercise the whole API."""
        result = subprocess.run(
            [sys.executable, str(SMOKE), "--workers", "1"],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=str(REPO_ROOT),
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "SMOKE PASSED" in result.stdout
