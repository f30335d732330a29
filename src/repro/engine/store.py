"""Persistent cache store behind :class:`~repro.engine.ResultCache`.

The cache's disk tier is :class:`SqliteStore`: one WAL-mode SQLite database
holding every entry as a row keyed by the full cache key **and** the split
digests ``(structure, overlay)``.  Batched :meth:`~SqliteStore.get_many` /
:meth:`~SqliteStore.put_many` run as **one transaction per batch**, an index
on the structure half makes "drop every overlay entry of this structure" a
single ``DELETE``, and size budgets (``max_entries`` / ``max_bytes``) evict
least-recently-accessed rows inside the put transaction.  Corrupt rows are
quarantined into a ``quarantine`` table and read as misses.

:func:`open_store` resolves a cache path:

========================  =====================================================
``sqlite:///path/to.db``  SQLite database at that path
``path/to/file.sqlite``   SQLite database (``.sqlite`` / ``.sqlite3`` / ``.db``)
``path/to/dir``           SQLite database at ``dir/cache.sqlite``
========================  =====================================================

The store shares one :class:`~repro.engine.cache.CacheStats` object with its
owning cache and feeds the ``corrupt`` / ``evictions`` / ``transactions``
counters, so ``/stats`` and ``/metrics`` report storage behaviour without a
second bookkeeping layer.
"""

from __future__ import annotations

import marshal
import sqlite3
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core import Schedule
from ..errors import CacheError, ValidationError

__all__ = [
    "SQLITE_SCHEMA_VERSION",
    "RECORD_FORMAT",
    "SqliteStore",
    "open_store",
]

PathLike = Union[str, Path]

#: bump when the SQLite layout changes — an old database is then rebuilt
#: (entries dropped) instead of misread, mirroring the digest SCHEMA_VERSION rule
SQLITE_SCHEMA_VERSION = 1

#: serialization tag of the SQLite ``record`` column.  Records are stored as
#: :mod:`marshal` blobs: data-only on load (unlike pickle, a corrupted or
#: tampered blob cannot execute code) and about twice as fast as JSON text to
#: revive — the dominant per-row cost of a warm batched lookup.  The marshal
#: wire format is python-version-dependent, so the tag is kept in ``meta``
#: and a mismatch rebuilds the entries like a schema bump (it is a cache).
RECORD_FORMAT = "marshal:%d.%d:%d" % (
    sys.version_info.major,
    sys.version_info.minor,
    marshal.version,
)

#: database filename used when the cache path is a *directory*
SQLITE_DB_NAME = "cache.sqlite"

#: exceptions that mean "this schedule record is malformed", i.e. corrupt
_SCHEDULE_ERRORS = (AttributeError, KeyError, TypeError, ValueError, ValidationError)


def _decode_schedule(record: object) -> Optional[Schedule]:
    """Schedule for a raw record dict, or ``None`` when the record is corrupt."""
    if not isinstance(record, dict):
        return None
    try:
        return Schedule.from_dict(record)
    except _SCHEDULE_ERRORS:
        return None


def _loads_record(blob: object) -> object:
    """Revive a marshal record blob; ``None`` when the blob is corrupt.

    Marshal only reconstructs plain data (a tampered blob cannot execute
    code); any truncation, garbage, or legacy text row surfaces as one of
    the caught errors and reads as corruption.
    """
    if not isinstance(blob, bytes):
        return None
    try:
        return marshal.loads(blob)
    except (EOFError, ValueError, TypeError):
        return None


class SqliteStore:
    """Concurrency-safe SQLite entry store (the production disk tier).

    * **WAL mode** — readers never block the (single) writer and vice versa,
      which is what lets N server/worker processes share one database file;
      ``busy_timeout`` plus a bounded retry loop absorbs writer collisions.
    * **Schema-versioned** — ``PRAGMA user_version`` guards the layout; a
      database written by an incompatible build is rebuilt (entries dropped),
      never misread.
    * **Batched** — :meth:`get_many` is one ``SELECT ... IN`` transaction
      (plus a last-access ``UPDATE`` when a budget makes LRU order matter);
      :meth:`put_many` is one ``INSERT OR REPLACE`` transaction that also
      enforces the size budgets.  ``stats.transactions`` counts one per
      batch, which is how the test suite proves a warm K-job batch costs
      O(1) storage round trips.
    * **Marshal records** — rows hold :mod:`marshal` blobs (see
      :data:`RECORD_FORMAT`): data-only on load and ~2x faster to revive
      than JSON text; a python-version change rebuilds the entries via the
      ``meta`` format tag instead of misreading them.
    * **Structure-aware** — rows carry the split digests, with an index on
      the structure half: :meth:`drop_structure` is one indexed ``DELETE``.
    * **Budgeted** — ``max_entries`` / ``max_bytes`` evict rows in
      least-recently-accessed order inside the put transaction, so the store
      never leaves a put over budget.
    * **Quarantine** — a row whose record fails blob or schedule validation
      moves to the ``quarantine`` table, is counted in ``stats.corrupt`` and
      reads as a miss; a later put heals the key.  :meth:`clear` drops
      quarantined rows too.

    ``stats`` is the owning cache's :class:`~repro.engine.cache.CacheStats`;
    the store feeds its ``corrupt``, ``evictions`` and ``transactions``
    counters.  One instance is safe to share across threads, and any number
    of processes may open the same database file.
    """

    #: bounded retry loop on writer collisions (on top of busy_timeout)
    BUSY_RETRIES = 5
    BUSY_BACKOFF_SECONDS = 0.05

    def __init__(
        self,
        path: PathLike,
        stats: Optional[object] = None,
        *,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        busy_timeout: float = 30.0,
    ) -> None:
        from .cache import CacheStats  # cycle-free: cache imports this module

        self.stats = stats if stats is not None else CacheStats()
        self._lock = threading.Lock()
        if max_entries is not None and max_entries < 1:
            raise CacheError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise CacheError(f"max_bytes must be >= 1, got {max_bytes}")
        self.path = Path(path).expanduser()
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._db = sqlite3.connect(
                str(self.path), timeout=float(busy_timeout), check_same_thread=False
            )
        except (OSError, sqlite3.Error) as exc:
            raise CacheError(f"cannot open cache database {self.path}: {exc}") from exc
        self._db_lock = threading.Lock()  # serialize this process's connection
        #: monotonically increasing access tick (clock-skew-proof LRU order)
        self._access = 0
        try:
            self._initialize()
        except sqlite3.Error as exc:
            raise CacheError(f"cannot initialize cache database {self.path}: {exc}") from exc

    def _count(self, *, transactions: int = 0, corrupt: int = 0, evictions: int = 0) -> None:
        with self._lock:
            self.stats.transactions += transactions
            self.stats.corrupt += corrupt
            self.stats.evictions += evictions

    # -- schema --------------------------------------------------------

    def _initialize(self) -> None:
        with self._db_lock:
            cursor = self._db.cursor()
            cursor.execute("PRAGMA journal_mode=WAL")
            cursor.execute("PRAGMA synchronous=NORMAL")
            (version,) = cursor.execute("PRAGMA user_version").fetchone()
            if version not in (0, SQLITE_SCHEMA_VERSION):
                # an incompatible layout: rebuild rather than misread (the
                # same contract as the digest SCHEMA_VERSION guard)
                cursor.execute("DROP TABLE IF EXISTS entries")
                cursor.execute("DROP TABLE IF EXISTS quarantine")
                cursor.execute("DROP TABLE IF EXISTS meta")
            cursor.execute(
                """
                CREATE TABLE IF NOT EXISTS entries (
                    key TEXT PRIMARY KEY,
                    structure TEXT,
                    overlay TEXT,
                    record BLOB NOT NULL,
                    size INTEGER NOT NULL,
                    created REAL NOT NULL,
                    access INTEGER NOT NULL
                )
                """
            )
            cursor.execute(
                "CREATE INDEX IF NOT EXISTS entries_structure ON entries(structure)"
            )
            cursor.execute(
                "CREATE INDEX IF NOT EXISTS entries_access ON entries(access)"
            )
            cursor.execute(
                """
                CREATE TABLE IF NOT EXISTS quarantine (
                    key TEXT,
                    record BLOB,
                    reason TEXT,
                    quarantined REAL NOT NULL
                )
                """
            )
            cursor.execute(
                "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
            )
            cursor.execute(f"PRAGMA user_version = {SQLITE_SCHEMA_VERSION}")
            # marshal blobs do not survive a python-version change: treat a
            # record-format mismatch as a cache rebuild, not mass corruption
            row = cursor.execute(
                "SELECT value FROM meta WHERE key = 'record-format'"
            ).fetchone()
            if row is None or row[0] != RECORD_FORMAT:
                if cursor.execute("SELECT 1 FROM entries LIMIT 1").fetchone():
                    cursor.execute("DELETE FROM entries")
                cursor.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                    ("record-format", RECORD_FORMAT),
                )
            row = cursor.execute("SELECT MAX(access) FROM entries").fetchone()
            self._access = int(row[0] or 0)
            self._db.commit()

    def _execute(self, operation: Callable[[sqlite3.Cursor], object]) -> object:
        """Run ``operation`` in one transaction with bounded busy retries."""
        last_error: Optional[sqlite3.Error] = None
        for attempt in range(self.BUSY_RETRIES + 1):
            with self._db_lock:
                cursor = self._db.cursor()
                try:
                    result = operation(cursor)
                    self._db.commit()
                    return result
                except sqlite3.OperationalError as exc:
                    self._db.rollback()
                    if "locked" not in str(exc) and "busy" not in str(exc):
                        raise CacheError(f"cache database error: {exc}") from exc
                    last_error = exc
                except sqlite3.Error as exc:
                    self._db.rollback()
                    raise CacheError(f"cache database error: {exc}") from exc
            time.sleep(self.BUSY_BACKOFF_SECONDS * (attempt + 1))
        raise CacheError(
            f"cache database stayed locked after {self.BUSY_RETRIES} retries: {last_error}"
        )

    # -- lookups and stores ---------------------------------------------

    def _select_rows(self, keys: List[str]) -> List[Tuple[str, bytes]]:
        """One ``(key, record-blob)`` select transaction over ``keys``."""
        # access ticks only feed LRU eviction; without a budget the lookup
        # stays a pure read — no UPDATE, no write commit, no writer contention
        refresh_access = self.max_entries is not None or self.max_bytes is not None

        def lookup(cursor: sqlite3.Cursor) -> List[Tuple[str, bytes]]:
            rows: List[Tuple[str, bytes]] = []
            # SQLite caps bound parameters (999 on old builds); chunk the IN
            for start in range(0, len(keys), 500):
                chunk = keys[start : start + 500]
                marks = ",".join("?" * len(chunk))
                rows.extend(
                    cursor.execute(
                        f"SELECT key, record FROM entries WHERE key IN ({marks})",
                        chunk,
                    ).fetchall()
                )
            if not refresh_access:
                return rows
            self._access += 1
            tick = self._access
            for start in range(0, len(rows), 500):
                chunk = [key for key, _ in rows[start : start + 500]]
                marks = ",".join("?" * len(chunk))
                cursor.execute(
                    f"UPDATE entries SET access = ? WHERE key IN ({marks})",
                    [tick, *chunk],
                )
            return rows

        rows = self._execute(lookup)
        self._count(transactions=1)
        return rows

    def get_many(
        self, keys: Sequence[str]
    ) -> Dict[str, Tuple[Dict[str, object], Schedule]]:
        """Validated ``{key: (record, schedule)}`` for every present key.

        Absent keys are simply missing from the result; corrupt entries are
        quarantined, counted, and also missing (the caller books the miss).
        """
        keys = list(dict.fromkeys(keys))
        if not keys:
            return {}
        results: Dict[str, Tuple[Dict[str, object], Schedule]] = {}
        corrupt: List[Tuple[str, object, str]] = []
        for key, blob in self._select_rows(keys):
            record = _loads_record(blob)
            if not isinstance(record, dict):
                corrupt.append((key, blob, "invalid record blob"))
                continue
            schedule = _decode_schedule(record)
            if schedule is None:
                corrupt.append((key, blob, "malformed schedule"))
                continue
            results[key] = (record, schedule)
        if corrupt:
            self._quarantine_rows(corrupt)
        return results

    def _quarantine_rows(self, rows: Sequence[Tuple[str, object, str]]) -> None:
        """Move corrupt rows aside (one transaction) and count them."""

        def quarantine(cursor: sqlite3.Cursor) -> None:
            now = time.time()
            for key, blob, reason in rows:
                # verify the row was not concurrently healed by a put before
                # quarantining — evicting a fresh healthy entry would be worse
                # than keeping a corrupt one for one more lookup
                current = cursor.execute(
                    "SELECT record FROM entries WHERE key = ?", (key,)
                ).fetchone()
                if current is None or current[0] != blob:
                    continue
                cursor.execute(
                    "INSERT INTO quarantine (key, record, reason, quarantined) "
                    "VALUES (?, ?, ?, ?)",
                    (key, blob, reason, now),
                )
                cursor.execute("DELETE FROM entries WHERE key = ?", (key,))

        self._execute(quarantine)
        self._count(transactions=1, corrupt=len(rows))

    def put_many(
        self,
        items: Sequence[Tuple[str, Dict[str, object], Optional[Tuple[str, str]]]],
    ) -> None:
        """Store ``(key, record, split_digests)`` entries in one transaction.

        ``split_digests`` is the job's ``(structure, overlay)`` digest pair
        when the caller knows it (indexed for :meth:`drop_structure`);
        ``None`` degrades gracefully.
        """
        if not items:
            return
        now = time.time()

        def store(cursor: sqlite3.Cursor) -> int:
            self._access += 1
            tick = self._access
            for key, record, split in items:
                blob = marshal.dumps(record)
                structure, overlay = split if split is not None else (None, None)
                cursor.execute(
                    "INSERT OR REPLACE INTO entries "
                    "(key, structure, overlay, record, size, created, access) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (key, structure, overlay, blob, len(blob), now, tick),
                )
            return self._evict_over_budget(
                cursor, max_entries=self.max_entries, max_bytes=self.max_bytes
            )

        evicted = int(self._execute(store))
        self._count(transactions=1, evictions=evicted)

    @staticmethod
    def _evict_over_budget(
        cursor: sqlite3.Cursor,
        *,
        max_entries: Optional[int],
        max_bytes: Optional[int],
    ) -> int:
        """Delete LRU rows until within the budgets (same transaction)."""
        if max_entries is None and max_bytes is None:
            return 0
        count, total = cursor.execute(
            "SELECT COUNT(*), COALESCE(SUM(size), 0) FROM entries"
        ).fetchone()
        over_entries = max_entries is not None and count > max_entries
        over_bytes = max_bytes is not None and total > max_bytes
        if not (over_entries or over_bytes):
            return 0
        victims: List[str] = []
        for key, size in cursor.execute(
            "SELECT key, size FROM entries ORDER BY access ASC, rowid ASC"
        ):
            if not (
                (max_entries is not None and count > max_entries)
                or (max_bytes is not None and total > max_bytes)
            ):
                break
            victims.append(key)
            count -= 1
            total -= size
        for start in range(0, len(victims), 500):
            chunk = victims[start : start + 500]
            marks = ",".join("?" * len(chunk))
            cursor.execute(f"DELETE FROM entries WHERE key IN ({marks})", chunk)
        return len(victims)

    def contains(self, key: str) -> bool:
        def check(cursor: sqlite3.Cursor) -> bool:
            return (
                cursor.execute(
                    "SELECT 1 FROM entries WHERE key = ?", (key,)
                ).fetchone()
                is not None
            )

        return bool(self._execute(check))

    def keys(self) -> List[str]:
        def read(cursor: sqlite3.Cursor) -> List[str]:
            return [key for (key,) in cursor.execute("SELECT key FROM entries")]

        return list(self._execute(read))

    def drop_structure(self, structure_digest: str) -> int:
        """One indexed DELETE: the split-digest payoff of the PR 5 key layout."""

        def drop(cursor: sqlite3.Cursor) -> int:
            cursor.execute(
                "DELETE FROM entries WHERE structure = ?", (structure_digest,)
            )
            return cursor.rowcount

        dropped = int(self._execute(drop))
        self._count(transactions=1, evictions=dropped)
        return dropped

    def prune(
        self, *, max_entries: Optional[int] = None, max_bytes: Optional[int] = None
    ) -> int:
        def do_prune(cursor: sqlite3.Cursor) -> int:
            return self._evict_over_budget(
                cursor, max_entries=max_entries, max_bytes=max_bytes
            )

        evicted = int(self._execute(do_prune))
        self._count(transactions=1, evictions=evicted)
        return evicted

    def clear(self) -> None:
        """Delete every entry — including quarantined ones."""

        def wipe(cursor: sqlite3.Cursor) -> None:
            cursor.execute("DELETE FROM entries")
            cursor.execute("DELETE FROM quarantine")

        self._execute(wipe)
        self._count(transactions=1)

    def entry_count(self) -> int:
        def count(cursor: sqlite3.Cursor) -> int:
            return int(cursor.execute("SELECT COUNT(*) FROM entries").fetchone()[0])

        return int(self._execute(count))

    def byte_count(self) -> int:
        def total(cursor: sqlite3.Cursor) -> int:
            return int(
                cursor.execute(
                    "SELECT COALESCE(SUM(size), 0) FROM entries"
                ).fetchone()[0]
            )

        return int(self._execute(total))

    def quarantine_count(self) -> int:
        def count(cursor: sqlite3.Cursor) -> int:
            return int(cursor.execute("SELECT COUNT(*) FROM quarantine").fetchone()[0])

        return int(self._execute(count))

    def close(self) -> None:
        with self._db_lock:
            try:
                self._db.close()
            except sqlite3.Error:
                pass


def open_store(
    path: PathLike,
    stats: Optional[object] = None,
    *,
    max_entries: Optional[int] = None,
    max_bytes: Optional[int] = None,
) -> SqliteStore:
    """Open the :class:`SqliteStore` for a cache path (see module docs).

    A ``sqlite://`` prefix or a ``.sqlite`` / ``.sqlite3`` / ``.db`` suffix
    names the database file itself; any other path is a cache *directory*
    holding ``cache.sqlite``.  ``max_entries`` / ``max_bytes`` are the
    store's size budgets.
    """
    spec = str(path)
    if spec.startswith("sqlite://"):
        return SqliteStore(
            spec[len("sqlite://") :], stats, max_entries=max_entries, max_bytes=max_bytes
        )
    resolved = Path(spec).expanduser()
    if resolved.suffix.lower() in (".sqlite", ".sqlite3", ".db"):
        return SqliteStore(
            resolved, stats, max_entries=max_entries, max_bytes=max_bytes
        )
    try:
        resolved.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CacheError(f"cannot create cache directory {resolved}: {exc}") from exc
    return SqliteStore(
        resolved / SQLITE_DB_NAME, stats, max_entries=max_entries, max_bytes=max_bytes
    )
