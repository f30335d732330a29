"""Two-tier result cache for the batch-analysis engine.

Tier 1 is a bounded in-memory LRU; tier 2 is an optional persistent
:class:`~repro.engine.store.SqliteStore` (see :mod:`repro.engine.store` for
the path forms it accepts).  Keys come from
:attr:`repro.engine.jobs.AnalysisJob.cache_key`, i.e. problem content digest +
algorithm + schema version, so a cache path can be shared between sweeps,
re-runs and even machines: any analysis of identical problem content is a hit.

Lookups and stores are **batched**: :meth:`ResultCache.get_many` /
:meth:`ResultCache.put_many` resolve a whole probe generation against the
memory tier and then hit the store once (one SQLite transaction per batch),
which is what keeps a warm ``POST /batch`` of K cached jobs at O(1) storage
round trips instead of O(K) file opens.

The cache counts hits and misses (:class:`CacheStats`), which is how the test
suite proves that a warm re-run of a sweep performs *zero* analyzer
invocations.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..core import Schedule
from ..errors import CacheError
from .store import SqliteStore, open_store

__all__ = ["CacheStats", "ResultCache"]

PathLike = Union[str, Path]


@dataclass
class CacheStats:
    """Hit/miss bookkeeping; ``hits = memory_hits + disk_hits``.

    ``corrupt`` counts disk entries that could not be decoded (unreadable
    blobs, malformed schedules); each is quarantined on first sight and the
    lookup proceeds as a miss.  ``evictions`` counts entries dropped by the
    size budgets, ``transactions`` counts storage round trips (one per
    batch), and ``disk_entries``/``disk_bytes``
    snapshot store occupancy (refreshed by :meth:`ResultCache.stats_dict`).
    """

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    evictions: int = 0
    transactions: int = 0
    disk_entries: int = 0
    disk_bytes: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        return (self.hits / self.lookups) if self.lookups else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "evictions": self.evictions,
            "transactions": self.transactions,
            "disk_entries": self.disk_entries,
            "disk_bytes": self.disk_bytes,
            "hits": self.hits,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate(),
        }


#: a job's ``(structure_digest, overlay_digest)`` pair, when the caller has it
SplitDigests = Optional[Tuple[str, str]]


class ResultCache:
    """LRU memory cache over an optional persistent :class:`SqliteStore`.

    ``path=None`` gives a memory-only cache; otherwise entries also go to the
    store at ``path`` (a ``sqlite://`` URL, a ``.sqlite`` file, or a plain
    cache directory — see :mod:`repro.engine.store`) and survive the
    process.  ``memory_limit`` bounds the number of in-memory entries;
    ``memory_limit=0`` disables the memory tier entirely.  ``max_entries`` /
    ``max_bytes`` budget the persistent tier: puts that push past a budget
    evict least-recently-accessed entries in the same transaction.
    """

    def __init__(
        self,
        path: Optional[PathLike] = None,
        *,
        memory_limit: int = 1024,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if memory_limit < 0:
            raise CacheError(f"memory_limit must be >= 0, got {memory_limit}")
        self.memory_limit = int(memory_limit)
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self._lock = threading.Lock()
        self.store: Optional[SqliteStore] = (
            None
            if path is None
            else open_store(path, self.stats, max_entries=max_entries, max_bytes=max_bytes)
        )
        #: resolved database file of the persistent tier; ``None`` for a
        #: memory-only cache
        self.path: Optional[Path] = None if self.store is None else self.store.path

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[Schedule]:
        """Cached schedule for ``key``, or ``None`` (counted as hit or miss)."""
        with obs.span("cache.lookup") as lookup:
            with self._lock:
                record = self._memory.get(key)
                if record is not None:
                    self._memory.move_to_end(key)
                    self.stats.memory_hits += 1
                    lookup.set(outcome="memory_hit")
                    return Schedule.from_dict(record)
            if self.store is not None:
                loaded = self.store.get_many([key]).get(key)
                if loaded is not None:
                    record, schedule = loaded
                    with self._lock:
                        self.stats.disk_hits += 1
                        self._remember(key, record)
                    lookup.set(outcome="disk_hit")
                    return schedule
            with self._lock:
                self.stats.misses += 1
            lookup.set(outcome="miss")
            return None

    def get_many(self, keys: Sequence[str]) -> Dict[str, Schedule]:
        """Cached schedules for every hit among ``keys`` (one store round trip).

        The memory tier is swept first; only the residue goes to the store, as
        a single batched lookup.  Every key is counted exactly once as a
        memory hit, disk hit, or miss.  Duplicate keys count (and cost) once.
        """
        keys = list(dict.fromkeys(keys))
        with obs.span("cache.lookup_many") as lookup:
            results: Dict[str, Schedule] = {}
            residue: List[str] = []
            with self._lock:
                for key in keys:
                    record = self._memory.get(key)
                    if record is not None:
                        self._memory.move_to_end(key)
                        self.stats.memory_hits += 1
                        results[key] = Schedule.from_dict(record)
                    else:
                        residue.append(key)
            disk_hits = 0
            if residue and self.store is not None:
                loaded = self.store.get_many(residue)
                with self._lock:
                    for key, (record, schedule) in loaded.items():
                        self.stats.disk_hits += 1
                        self._remember(key, record)
                        results[key] = schedule
                disk_hits = len(loaded)
            misses = len(keys) - len(results)
            if misses:
                with self._lock:
                    self.stats.misses += misses
            lookup.set(
                keys=len(keys),
                memory_hits=len(results) - disk_hits,
                disk_hits=disk_hits,
                misses=misses,
            )
            return results

    def put(self, key: str, schedule: Schedule, *, split: SplitDigests = None) -> None:
        """Store ``schedule`` under ``key`` in both tiers.

        ``split`` is the job's ``(structure_digest, overlay_digest)`` pair
        when known; the SQLite store indexes the structure half so a whole
        structure's entries can be dropped in one statement.
        """
        self.put_many([(key, schedule, split)])

    def put_many(
        self, items: Sequence[Tuple[str, Schedule, SplitDigests]]
    ) -> None:
        """Store a batch of ``(key, schedule, split)`` entries (one transaction)."""
        if not items:
            return
        encoded = [(key, schedule.to_dict(), split) for key, schedule, split in items]
        with self._lock:
            for key, record, _split in encoded:
                self._remember(key, record)
            self.stats.stores += len(encoded)
        if self.store is not None:
            self.store.put_many(encoded)

    def contains(self, key: str) -> bool:
        """True when ``key`` is cached (does not touch the hit/miss counters)."""
        with self._lock:
            if key in self._memory:
                return True
        return self.store is not None and self.store.contains(key)

    def drop_structure(self, structure_digest: str) -> int:
        """Invalidate every persistent entry of one structure digest.

        One indexed ``DELETE`` on the store.  The memory tier does not track
        split digests, so it is
        dropped wholesale — conservative, but never stale.  Returns the number
        of persistent entries removed.
        """
        if self.store is None:
            return 0
        with self._lock:
            self._memory.clear()
        return self.store.drop_structure(structure_digest)

    def prune(
        self, *, max_entries: Optional[int] = None, max_bytes: Optional[int] = None
    ) -> int:
        """Evict LRU persistent entries past the given budgets; returns count."""
        if self.store is None:
            return 0
        return self.store.prune(max_entries=max_entries, max_bytes=max_bytes)

    def clear(self, *, disk: bool = True) -> None:
        """Drop the memory tier and (optionally) every persistent entry.

        Quarantined entries are dropped too.  Only the store's database is
        touched, so a cache directory that also holds user files never
        loses them.
        """
        with self._lock:
            self._memory.clear()
        if disk and self.store is not None:
            self.store.clear()

    def stats_dict(self) -> Dict[str, float]:
        """:meth:`CacheStats.to_dict` with fresh ``disk_entries``/``disk_bytes``."""
        if self.store is not None:
            entries = self.store.entry_count()
            size = self.store.byte_count()
            with self._lock:
                self.stats.disk_entries = entries
                self.stats.disk_bytes = size
        return self.stats.to_dict()

    def close(self) -> None:
        """Release the persistent store's resources (idempotent)."""
        if self.store is not None:
            self.store.close()

    def __len__(self) -> int:
        """Number of distinct cached entries across both tiers."""
        with self._lock:
            keys = set(self._memory)
        if self.store is not None:
            keys.update(self.store.keys())
        return len(keys)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _remember(self, key: str, record: Dict[str, object]) -> None:
        if self.memory_limit == 0:
            return
        self._memory[key] = record
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_limit:
            self._memory.popitem(last=False)
