"""Tests for the persistent SQLite cache store."""

from __future__ import annotations

import hashlib
import json
import marshal
import sqlite3

import pytest

from repro import analyze
from repro.engine import ResultCache
from repro.engine.cache import CacheStats
from repro.engine.store import (
    SQLITE_SCHEMA_VERSION,
    SqliteStore,
    open_store,
)
from repro.errors import CacheError


@pytest.fixture
def record(diamond_problem):
    return analyze(diamond_problem).to_dict()


def _entries(count, record, structure="structure-0"):
    return [(f"key-{index}", record, (structure, f"overlay-{index}")) for index in range(count)]


# ----------------------------------------------------------------------
# path forms
# ----------------------------------------------------------------------


class TestOpenStore:
    def test_sqlite_url(self, tmp_path):
        store = open_store(f"sqlite://{tmp_path / 'c.db'}")
        assert isinstance(store, SqliteStore)

    @pytest.mark.parametrize("suffix", [".sqlite", ".sqlite3", ".db"])
    def test_database_suffix_selects_sqlite(self, tmp_path, suffix):
        store = open_store(tmp_path / f"cache{suffix}")
        assert isinstance(store, SqliteStore)
        assert store.path == tmp_path / f"cache{suffix}"

    def test_directory_defaults_to_sqlite(self, tmp_path):
        store = open_store(tmp_path / "cache")
        assert isinstance(store, SqliteStore)
        assert store.path == tmp_path / "cache" / "cache.sqlite"


# ----------------------------------------------------------------------
# SQLite store behaviour
# ----------------------------------------------------------------------


class TestSqliteStore:
    def test_round_trip(self, tmp_path, record):
        store = SqliteStore(tmp_path / "c.db")
        store.put_many([("key-1", record, ("s", "o"))])
        loaded = store.get_many(["key-1"])
        got_record, schedule = loaded["key-1"]
        assert got_record == record
        assert schedule.to_dict() == record

    def test_batched_calls_are_one_transaction_each(self, tmp_path, record):
        stats = CacheStats()
        store = SqliteStore(tmp_path / "c.db", stats)
        # more keys than one 500-key IN chunk of the select
        keys = [f"key-{index}" for index in range(600)]
        store.put_many(_entries(600, record))
        assert stats.transactions == 1
        assert set(store.get_many(keys)) == set(keys)
        assert stats.transactions == 2

    def test_survives_reopen(self, tmp_path, record):
        SqliteStore(tmp_path / "c.db").put_many(_entries(4, record))
        store = SqliteStore(tmp_path / "c.db")
        assert store.entry_count() == 4
        assert len(store.get_many([f"key-{index}" for index in range(4)])) == 4

    def test_schema_version_mismatch_rebuilds(self, tmp_path, record):
        store = SqliteStore(tmp_path / "c.db")
        store.put_many(_entries(3, record))
        store.close()
        with sqlite3.connect(tmp_path / "c.db") as db:
            db.execute(f"PRAGMA user_version = {SQLITE_SCHEMA_VERSION + 1}")
        reopened = SqliteStore(tmp_path / "c.db")
        assert reopened.entry_count() == 0  # rebuilt, never misread

    def test_corrupt_row_is_quarantined_and_counted_once(self, tmp_path, record):
        stats = CacheStats()
        store = SqliteStore(tmp_path / "c.db", stats)
        store.put_many([("key-1", record, None)])
        with store._db_lock:
            store._db.execute(
                "UPDATE entries SET record = '{ not json' WHERE key = 'key-1'"
            )
            store._db.commit()
        assert store.get_many(["key-1"]) == {}
        assert stats.corrupt == 1
        assert store.quarantine_count() == 1
        assert store.entry_count() == 0
        # second lookup: the row is gone, so a plain miss — counted once
        assert store.get_many(["key-1"]) == {}
        assert stats.corrupt == 1

    def test_malformed_schedule_row_is_corrupt_too(self, tmp_path, record):
        stats = CacheStats()
        store = SqliteStore(tmp_path / "c.db", stats)
        store.put_many([("key-1", record, None)])
        with store._db_lock:
            store._db.execute(
                """UPDATE entries SET record = '{"entries": "nope"}' WHERE key = 'key-1'"""
            )
            store._db.commit()
        assert store.get_many(["key-1"]) == {}
        assert stats.corrupt == 1
        assert store.quarantine_count() == 1

    def test_put_heals_a_quarantined_key(self, tmp_path, record):
        store = SqliteStore(tmp_path / "c.db")
        store.put_many([("key-1", record, None)])
        with store._db_lock:
            store._db.execute("UPDATE entries SET record = 'garbage' WHERE key = 'key-1'")
            store._db.commit()
        assert store.get_many(["key-1"]) == {}
        store.put_many([("key-1", record, None)])
        assert store.get_many(["key-1"])["key-1"][0] == record

    def test_clear_drops_quarantined_rows(self, tmp_path, record):
        store = SqliteStore(tmp_path / "c.db")
        store.put_many([("key-1", record, None)])
        with store._db_lock:
            store._db.execute("UPDATE entries SET record = 'garbage' WHERE key = 'key-1'")
            store._db.commit()
        store.get_many(["key-1"])
        assert store.quarantine_count() == 1
        store.clear()
        assert store.quarantine_count() == 0
        assert store.entry_count() == 0

    def test_drop_structure_is_structure_scoped(self, tmp_path, record):
        store = SqliteStore(tmp_path / "c.db")
        store.put_many(_entries(5, record, structure="structure-a"))
        store.put_many([("other", record, ("structure-b", "o"))])
        assert store.drop_structure("structure-a") == 5
        assert store.entry_count() == 1
        assert "other" in store.get_many(["other"])

    def test_max_entries_evicts_lru_at_put_time(self, tmp_path, record):
        stats = CacheStats()
        store = SqliteStore(tmp_path / "c.db", stats, max_entries=4)
        store.put_many(_entries(4, record))
        store.get_many(["key-0"])  # refresh key-0: it must survive the eviction
        store.put_many([("key-new", record, None)])
        assert store.entry_count() == 4
        assert stats.evictions == 1
        kept = set(store.keys())
        assert "key-0" in kept and "key-new" in kept

    def test_max_bytes_budget_holds_under_fill(self, tmp_path, record):
        size = len(marshal.dumps(record))
        budget = size * 10 + size // 2
        store = SqliteStore(tmp_path / "c.db", max_bytes=budget)
        for start in range(0, 64, 8):
            store.put_many([(f"key-{start + i}", record, None) for i in range(8)])
            assert store.byte_count() <= budget  # holds after every put batch
        assert store.entry_count() <= 10

    def test_occupancy_aggregates(self, tmp_path, record):
        store = SqliteStore(tmp_path / "c.db")
        store.put_many(_entries(3, record))
        assert store.entry_count() == 3
        assert store.byte_count() == 3 * len(marshal.dumps(record))

    def test_invalid_budgets_rejected(self, tmp_path):
        with pytest.raises(CacheError):
            SqliteStore(tmp_path / "c.db", max_entries=0)
        with pytest.raises(CacheError):
            SqliteStore(tmp_path / "c.db", max_bytes=0)


def test_sqlite_eviction_keeps_store_within_max_bytes_under_50k_fill(tmp_path, record):
    """Acceptance: a 50k-entry fill never leaves the store over its byte budget."""
    size = len(marshal.dumps(record))
    budget = size * 1000  # room for ~1000 of the 50k entries
    store = SqliteStore(tmp_path / "c.db", max_bytes=budget)
    total = 50_000
    batch = 2_048
    written = 0
    while written < total:
        count = min(batch, total - written)
        store.put_many(
            [
                (f"fill-{written + index}", record, ("fill", f"o-{written + index}"))
                for index in range(count)
            ]
        )
        written += count
        assert store.byte_count() <= budget  # invariant after every put batch
    assert store.entry_count() <= budget // size
    # the survivors are the most recently written tail, and they read back intact
    survivors = store.keys()
    assert all(int(key.split("-")[1]) >= total - 2 * batch for key in survivors)
    loaded = store.get_many(survivors[:16])
    assert all(value[0] == record for value in loaded.values())


# ----------------------------------------------------------------------
# legacy JSON entry files
# ----------------------------------------------------------------------


def test_directory_with_legacy_json_entries_opens_as_an_empty_store(tmp_path, record):
    """Older builds kept one JSON file per entry; they are not imported."""
    directory = tmp_path / "cache"
    directory.mkdir()
    legacy = directory / f"{hashlib.sha256(b'legacy-key').hexdigest()}.json"
    document = {"format": "repro-cache-entry", "key": "legacy-key", "schedule": record}
    legacy.write_text(json.dumps(document), encoding="utf-8")
    cache = ResultCache(path=directory)
    try:
        assert cache.get("legacy-key") is None
        assert len(cache) == 0
    finally:
        cache.close()
    assert json.loads(legacy.read_text(encoding="utf-8")) == document
