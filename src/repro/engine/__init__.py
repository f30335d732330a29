"""Batch-analysis engine: parallel fan-out plus persistent result caching.

The engine turns the one-problem-at-a-time :func:`repro.analyze` API into a
throughput-oriented service layer:

* :mod:`repro.engine.jobs` — :class:`AnalysisJob` and the canonical content
  digest that identifies an :class:`~repro.core.AnalysisProblem`;
* :mod:`repro.engine.cache` — a two-tier :class:`ResultCache` (LRU memory
  over a persistent WAL-mode SQLite :mod:`repro.engine.store`) keyed by
  digest + algorithm + schema version, with batched ``get_many``/``put_many``
  lookups;
* :mod:`repro.engine.executor` — chunked pool fan-out with deterministic
  result ordering and streaming progress callbacks;
* :mod:`repro.engine.runtime` — :class:`EngineRuntime`, the one code path
  that executes a list of jobs: a persistent process pool (or a serial loop
  at one worker) with a shared result cache and :class:`RuntimeStats`
  telemetry, or a transient one opened per call;
* :mod:`repro.engine.batch` — the high-level :func:`analyze_many` /
  :class:`BatchAnalyzer` front door.
"""

from __future__ import annotations

from .batch import BatchAnalyzer, BatchReport, analyze_many
from .cache import CacheStats, ResultCache
from .executor import ProgressCallback, ProgressEvent, default_worker_count
from .jobs import SCHEMA_VERSION, AnalysisJob, canonical_problem_dict, problem_digest
from .runtime import EngineRuntime, RuntimeStats
from .store import SqliteStore, open_store

__all__ = [
    "AnalysisJob",
    "BatchAnalyzer",
    "BatchReport",
    "CacheStats",
    "EngineRuntime",
    "ProgressCallback",
    "ProgressEvent",
    "ResultCache",
    "RuntimeStats",
    "SCHEMA_VERSION",
    "SqliteStore",
    "analyze_many",
    "canonical_problem_dict",
    "default_worker_count",
    "open_store",
    "problem_digest",
]
