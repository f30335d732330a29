"""Batch-analysis engine: parallel fan-out plus persistent result caching.

The engine turns the one-problem-at-a-time :func:`repro.analyze` API into a
throughput-oriented service layer:

* :mod:`repro.engine.jobs` — :class:`AnalysisJob` and the canonical content
  digest that identifies an :class:`~repro.core.AnalysisProblem`;
* :mod:`repro.engine.cache` — a two-tier :class:`ResultCache` (LRU memory
  over a persistent WAL-mode SQLite :mod:`repro.engine.store`) keyed by
  digest + algorithm + schema version, with batched ``get_many``/``put_many``
  lookups;
* :mod:`repro.engine.executor` — process-pool fan-out with chunking,
  deterministic result ordering and streaming progress callbacks;
* :mod:`repro.engine.batch` — the high-level :func:`analyze_many` /
  :class:`BatchAnalyzer` front door.

Cache-aware algorithm plug-in
-----------------------------
The engine does not bypass the algorithm registry of
:mod:`repro.core.analyzer`: importing this package registers a
``"cached-incremental"`` algorithm (the incremental analysis behind the
process-wide :func:`default_cache`), so even plain ``analyze(problem,
"cached-incremental")`` benefits from result reuse.  Additional cached
variants can be registered with :func:`register_cached_algorithm`.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional

from ..core import AnalysisProblem, Schedule
from ..core.analyzer import INCREMENTAL, analyze, register_algorithm
from ..errors import CacheError
from .batch import BatchAnalyzer, BatchReport, analyze_many
from .cache import CacheStats, ResultCache
from .executor import ProgressCallback, ProgressEvent, default_worker_count, run_jobs
from .jobs import SCHEMA_VERSION, AnalysisJob, canonical_problem_dict, problem_digest
from .store import SqliteStore, migrate_json_dir, open_store

__all__ = [
    "AnalysisJob",
    "BatchAnalyzer",
    "BatchReport",
    "CacheStats",
    "ProgressCallback",
    "ProgressEvent",
    "ResultCache",
    "SCHEMA_VERSION",
    "SqliteStore",
    "analyze_many",
    "canonical_problem_dict",
    "default_cache",
    "default_worker_count",
    "make_cached_algorithm",
    "migrate_json_dir",
    "open_store",
    "problem_digest",
    "register_cached_algorithm",
    "run_jobs",
]

#: environment variable that makes the process-wide default cache persistent
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_DEFAULT_CACHE: Optional[ResultCache] = None


def default_cache() -> ResultCache:
    """Process-wide cache used by the registered ``cached-*`` algorithms.

    Memory-only unless the ``REPRO_CACHE_DIR`` environment variable points at
    a directory, in which case results persist across processes.
    """
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = ResultCache(path=os.environ.get(CACHE_DIR_ENV) or None)
    return _DEFAULT_CACHE


def make_cached_algorithm(base_algorithm: str, cache: Optional[ResultCache] = None):
    """Wrap a registered algorithm with result-cache lookups.

    The returned function has the standard ``problem -> Schedule`` algorithm
    signature, so it can be passed to
    :func:`repro.core.analyzer.register_algorithm`.
    """

    def cached(problem: AnalysisProblem) -> Schedule:
        store = cache if cache is not None else default_cache()
        job = AnalysisJob(problem=problem, algorithm=base_algorithm)
        hit = store.get(job.cache_key)
        if hit is not None:
            # content-keyed hit may carry another problem's name; relabel
            hit.problem_name = problem.name
            return hit
        schedule = analyze(problem, base_algorithm)
        try:
            store.put(job.cache_key, schedule, split=job.split_digests)
        except CacheError as exc:
            # never discard a computed schedule over a cache failure
            warnings.warn(f"result cache write failed: {exc}", RuntimeWarning, stacklevel=2)
        return schedule

    cached.__name__ = f"cached_{base_algorithm}"
    return cached


def register_cached_algorithm(
    name: str,
    base_algorithm: str = INCREMENTAL,
    cache: Optional[ResultCache] = None,
    *,
    overwrite: bool = False,
) -> None:
    """Register a cache-aware variant of ``base_algorithm`` under ``name``."""
    register_algorithm(name, make_cached_algorithm(base_algorithm, cache), overwrite=overwrite)


# the engine's cache-aware path is itself a registry plug-in, not a bypass
register_cached_algorithm("cached-incremental", INCREMENTAL, overwrite=True)
