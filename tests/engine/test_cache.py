"""Tests for the two-tier result cache.

The persistent tier is the SQLite store (see ``tests/engine/test_store.py``
for store-level coverage); the corruption tests below damage its rows
directly and check what the cache makes of them.
"""

from __future__ import annotations

import marshal

import pytest

from repro import analyze
from repro.engine import AnalysisJob, ResultCache, SqliteStore
from repro.errors import CacheError


@pytest.fixture
def job(diamond_problem):
    return AnalysisJob(problem=diamond_problem)


@pytest.fixture
def schedule(diamond_problem):
    return analyze(diamond_problem)


def _disk_cache(tmp_path, **kwargs) -> ResultCache:
    """Cache on the persistent store at tmp_path/cache."""
    return ResultCache(path=tmp_path / "cache", **kwargs)


def _damage(cache: ResultCache, key: str, blob: bytes) -> None:
    """Overwrite the stored record blob of ``key``, like a bad disk would."""
    store = cache.store
    with store._db_lock:
        store._db.execute("UPDATE entries SET record = ? WHERE key = ?", (blob, key))
        store._db.commit()


def _broken_schedule_blob(schedule) -> bytes:
    """A readable record whose schedule is malformed (missing fields)."""
    record = schedule.to_dict()
    record["entries"] = [{"name": "broken"}]
    return marshal.dumps(record)


def test_memory_hit_and_miss_counters(job, schedule):
    cache = ResultCache()
    assert cache.get(job.cache_key) is None
    assert cache.stats.misses == 1
    cache.put(job.cache_key, schedule)
    hit = cache.get(job.cache_key)
    assert hit is not None
    assert hit.makespan == schedule.makespan
    assert cache.stats.memory_hits == 1
    assert cache.stats.hits == 1
    assert cache.stats.stores == 1
    assert cache.stats.hit_rate() == 0.5


def test_directory_path_defaults_to_sqlite_store(tmp_path):
    cache = ResultCache(path=tmp_path / "cache")
    assert isinstance(cache.store, SqliteStore)
    assert cache.path == tmp_path / "cache" / "cache.sqlite"


def test_disk_round_trip(tmp_path, job, schedule):
    warm = _disk_cache(tmp_path)
    warm.put(job.cache_key, schedule)
    # a brand-new cache instance (fresh memory tier) must hit on disk
    cold = _disk_cache(tmp_path)
    restored = cold.get(job.cache_key)
    assert restored is not None
    assert cold.stats.disk_hits == 1
    assert restored.to_dict() == schedule.to_dict()
    # the disk hit promotes the entry to the memory tier
    again = cold.get(job.cache_key)
    assert again is not None
    assert cold.stats.memory_hits == 1


def test_contains_and_len(tmp_path, job, schedule):
    cache = ResultCache(path=tmp_path / "cache")
    assert not cache.contains(job.cache_key)
    cache.put(job.cache_key, schedule)
    assert cache.contains(job.cache_key)
    assert len(cache) == 1
    assert cache.stats.lookups == 0  # contains() does not count as a lookup


def test_lru_eviction(schedule):
    cache = ResultCache(memory_limit=2)
    cache.put("a", schedule)
    cache.put("b", schedule)
    cache.get("a")  # refresh "a": the LRU victim becomes "b"
    cache.put("c", schedule)
    assert cache.contains("a")
    assert not cache.contains("b")
    assert cache.contains("c")


def test_memory_limit_zero_disables_memory_tier(tmp_path, job, schedule):
    cache = ResultCache(path=tmp_path / "cache", memory_limit=0)
    cache.put(job.cache_key, schedule)
    assert cache.get(job.cache_key) is not None
    assert cache.stats.disk_hits == 1
    assert cache.stats.memory_hits == 0


def test_get_many_counts_each_key_once(tmp_path, job, schedule):
    cache = ResultCache(path=tmp_path / "cache")
    cache.put(job.cache_key, schedule)
    results = cache.get_many([job.cache_key, "absent", job.cache_key])
    assert set(results) == {job.cache_key}
    assert cache.stats.memory_hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.lookups == 2  # duplicates count (and cost) once


def test_get_many_promotes_disk_hits(tmp_path, job, schedule):
    warm = ResultCache(path=tmp_path / "cache")
    warm.put(job.cache_key, schedule)
    cold = ResultCache(path=tmp_path / "cache")
    first = cold.get_many([job.cache_key])
    assert first[job.cache_key].to_dict() == schedule.to_dict()
    assert cold.stats.disk_hits == 1
    again = cold.get_many([job.cache_key])
    assert again[job.cache_key].to_dict() == schedule.to_dict()
    assert cold.stats.memory_hits == 1


def test_put_many_batch_round_trip(tmp_path, schedule):
    cache = ResultCache(path=tmp_path / "cache")
    items = [(f"key-{index}", schedule, None) for index in range(8)]
    cache.put_many(items)
    assert cache.stats.stores == 8
    cold = ResultCache(path=tmp_path / "cache")
    results = cold.get_many([key for key, _, _ in items])
    assert len(results) == 8


def test_malformed_schedule_in_valid_record_is_a_miss(tmp_path, job, schedule):
    """A readable record carrying a broken schedule must not crash get()."""
    cache = _disk_cache(tmp_path)
    cache.put(job.cache_key, schedule)
    _damage(cache, job.cache_key, _broken_schedule_blob(schedule))
    cold = _disk_cache(tmp_path)
    assert cold.get(job.cache_key) is None
    assert cold.stats.misses == 1


def test_corrupt_disk_entry_is_a_miss(tmp_path, job, schedule):
    cache = _disk_cache(tmp_path)
    cache.put(job.cache_key, schedule)
    _damage(cache, job.cache_key, b"{ not a record")
    cold = _disk_cache(tmp_path)
    assert cold.get(job.cache_key) is None
    assert cold.stats.misses == 1


def test_truncated_entry_is_quarantined_and_counted(tmp_path, job, schedule):
    """A half-written entry must not shadow the digest forever."""
    cache = _disk_cache(tmp_path)
    cache.put(job.cache_key, schedule)
    blob = marshal.dumps(schedule.to_dict())
    _damage(cache, job.cache_key, blob[: len(blob) // 2])  # truncate mid-record
    cold = _disk_cache(tmp_path)
    assert cold.get(job.cache_key) is None
    assert cold.stats.corrupt == 1
    assert cold.stats.to_dict()["corrupt"] == 1
    # the bad row was moved aside ...
    assert cold.store.quarantine_count() == 1
    assert not cold.store.contains(job.cache_key)
    # ... so a recompute-and-store round trip fully heals the digest
    cold.put(job.cache_key, schedule)
    fresh = _disk_cache(tmp_path)
    assert fresh.get(job.cache_key) is not None
    assert fresh.stats.corrupt == 0


def test_corrupt_entry_counted_once_not_per_lookup(tmp_path, job, schedule):
    cache = _disk_cache(tmp_path)
    cache.put(job.cache_key, schedule)
    _damage(cache, job.cache_key, b"{ not a record")
    cold = _disk_cache(tmp_path)
    for _ in range(3):
        assert cold.get(job.cache_key) is None
    assert cold.stats.corrupt == 1  # quarantined on first sight
    assert cold.stats.misses == 3


def test_malformed_schedule_is_quarantined(tmp_path, job, schedule):
    """A readable record carrying a broken schedule is corrupt too."""
    cache = _disk_cache(tmp_path)
    cache.put(job.cache_key, schedule)
    _damage(cache, job.cache_key, _broken_schedule_blob(schedule))
    cold = _disk_cache(tmp_path)
    assert cold.get(job.cache_key) is None
    assert cold.stats.corrupt == 1
    assert cold.store.quarantine_count() == 1


def test_disk_hit_deserializes_the_schedule_once(tmp_path, job, schedule, monkeypatch):
    """The store's validation pass is the deserialization — not a second one."""
    import repro.engine.store as store_module

    warm = _disk_cache(tmp_path)
    warm.put(job.cache_key, schedule)
    calls = []
    real_from_dict = store_module.Schedule.from_dict

    class CountingSchedule:
        @staticmethod
        def from_dict(record):
            calls.append(1)
            return real_from_dict(record)

    monkeypatch.setattr(store_module, "Schedule", CountingSchedule)
    cold = _disk_cache(tmp_path)
    assert cold.get(job.cache_key) is not None
    assert len(calls) == 1


def test_concurrently_rewritten_entry_is_not_quarantined(tmp_path, job, schedule):
    """Quarantine must not evict an entry another process rewrote in the meantime."""
    cache = _disk_cache(tmp_path)
    cache.put(job.cache_key, schedule)
    # simulate the race: a reader judged some (now stale) record corrupt
    # after a writer already replaced the row with this healthy entry
    cache.store._quarantine_rows([(job.cache_key, b"the stale blob the reader saw", "race")])
    assert cache.store.contains(job.cache_key)  # the healthy entry was left alone
    assert cache.store.quarantine_count() == 0
    assert cache.stats.corrupt == 1  # the corrupt sighting is still recorded
    cold = _disk_cache(tmp_path)
    assert cold.get(job.cache_key) is not None


def test_clear_removes_quarantined_entries(tmp_path, job, schedule):
    cache = _disk_cache(tmp_path)
    cache.put(job.cache_key, schedule)
    _damage(cache, job.cache_key, b"{ not a record")
    cold = _disk_cache(tmp_path)
    assert cold.get(job.cache_key) is None
    assert cold.store.quarantine_count() == 1
    cold.clear()
    assert cold.store.quarantine_count() == 0


def test_clear(tmp_path, job, schedule):
    cache = _disk_cache(tmp_path)
    cache.put(job.cache_key, schedule)
    cache.clear()
    assert len(cache) == 0
    assert cache.get(job.cache_key) is None


def test_clear_never_deletes_foreign_json_files(tmp_path, job, schedule):
    """A cache pointed at a directory with user JSON must only touch its own entries."""
    directory = tmp_path / "mixed"
    directory.mkdir()
    foreign = directory / "my-problem.json"
    foreign.write_text('{"precious": true}', encoding="utf-8")
    cache = ResultCache(path=directory)
    cache.put(job.cache_key, schedule)
    assert len(cache) == 1  # foreign file is not counted as an entry
    cache.clear()
    assert foreign.exists()
    assert len(cache) == 0


def test_negative_memory_limit_rejected():
    with pytest.raises(CacheError):
        ResultCache(memory_limit=-1)


def test_tilde_in_cache_path_is_expanded(tmp_path, monkeypatch):
    """cache='~/...' (the documented idiom) must not create a literal '~' dir."""
    monkeypatch.setenv("HOME", str(tmp_path))
    cache = ResultCache(path="~/.cache/repro-test")
    assert cache.path == tmp_path / ".cache" / "repro-test" / "cache.sqlite"
    assert cache.path.parent.is_dir()


def test_stats_dict_reports_disk_occupancy(tmp_path, job, schedule):
    cache = ResultCache(path=tmp_path / "cache")
    cache.put(job.cache_key, schedule)
    stats = cache.stats_dict()
    assert stats["disk_entries"] == 1
    assert stats["disk_bytes"] > 0


def test_drop_structure_invalidates_only_that_structure(tmp_path, schedule):
    cache = ResultCache(path=tmp_path / "cache")
    cache.put_many(
        [
            ("key-a1", schedule, ("structure-a", "overlay-1")),
            ("key-a2", schedule, ("structure-a", "overlay-2")),
            ("key-b1", schedule, ("structure-b", "overlay-1")),
        ]
    )
    assert cache.drop_structure("structure-a") == 2
    assert not cache.contains("key-a1")
    assert not cache.contains("key-a2")
    assert cache.contains("key-b1")
