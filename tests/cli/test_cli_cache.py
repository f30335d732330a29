"""Tests for the ``repro-rta cache`` store-maintenance subcommand."""

from __future__ import annotations

import json

import pytest

from repro import analyze
from repro.cli.main import main
from repro.engine import ResultCache
from repro.engine.store import SqliteStore


def _fill(path, schedule, count, prefix="key"):
    cache = ResultCache(path=path)
    cache.put_many(
        [(f"{prefix}-{index}", schedule, ("s", f"o-{index}")) for index in range(count)]
    )
    cache.close()


class TestCacheStats:
    def test_reports_entries_and_bytes(self, tmp_path, diamond_problem, capsys):
        schedule = analyze(diamond_problem)
        _fill(tmp_path / "cache.sqlite", schedule, 3)
        assert main(["cache", "stats", str(tmp_path / "cache.sqlite")]) == 0
        output = capsys.readouterr().out
        assert "sqlite" in output
        assert "entries" in output and "3" in output
        assert "bytes" in output
        assert "quarantined" in output


class TestCacheMigrate:
    def test_migrate_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "migrate", str(tmp_path / "legacy"), str(tmp_path / "c.sqlite")])
        assert excinfo.value.code == 2
        assert "invalid choice: 'migrate'" in capsys.readouterr().err


class TestCachePrune:
    def test_prune_reports_evicted_and_exits_zero(self, tmp_path, diamond_problem, capsys):
        schedule = analyze(diamond_problem)
        _fill(tmp_path / "cache", schedule, 8)
        code = main(["cache", "prune", str(tmp_path / "cache"), "--max-entries", "3"])
        assert code == 0
        output = capsys.readouterr().out
        assert "evicted 5" in output
        assert "3 remain" in output

    def test_prune_by_bytes(self, tmp_path, diamond_problem, capsys):
        schedule = analyze(diamond_problem)
        record_size = len(json.dumps(schedule.to_dict(), separators=(",", ":")))
        _fill(tmp_path / "cache", schedule, 6)
        budget = record_size * 2 + 1
        assert main(["cache", "prune", str(tmp_path / "cache"), "--max-bytes", str(budget)]) == 0
        assert "4 remain" not in capsys.readouterr().out  # 2 fit the budget
        store = SqliteStore(tmp_path / "cache" / "cache.sqlite")
        try:
            assert store.byte_count() <= budget
        finally:
            store.close()

    def test_prune_without_budgets_errors(self, tmp_path, capsys):
        (tmp_path / "cache").mkdir()
        assert main(["cache", "prune", str(tmp_path / "cache")]) == 1
        assert "needs --max-entries" in capsys.readouterr().err
