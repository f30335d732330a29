"""Execution runtime: the one code path that runs a list of analysis jobs.

Every batch of jobs — a :meth:`BatchAnalyzer.run`, a
:meth:`SearchDriver.evaluate` generation, a drain of the
:mod:`repro.service` job queue — executes through :meth:`EngineRuntime.run`;
only the runtime's lifetime differs.  A *bound* runtime
(``BatchAnalyzer(runtime=...)``, ``SearchDriver(runtime=...)``,
``repro-rta serve``) owns **one** pool for its whole lifetime, so small
generations (a bisection search probes 2–3 problems per round) do not pay
pool startup every round — dramatically so under the ``spawn`` start method,
where every worker boots a fresh interpreter.  Without one,
:class:`~repro.engine.BatchAnalyzer` opens a *transient* runtime sized to a
call's cache misses and closes it when the call returns.

An :class:`EngineRuntime` has:

* a process pool above one worker, built lazily on first use and reused by
  every subsequent batch — a warm three-generation search performs **zero**
  additional pool constructions (:attr:`EngineRuntime.pools_created` counts
  them, which is also the test hook the acceptance suite asserts on); one
  worker means no pool at all, only a serial in-process loop;
* a shared :class:`~repro.engine.ResultCache`, so every client of the
  runtime (batches, searches, the :mod:`repro.service` job queue and API
  server) hits one cache;
* :meth:`EngineRuntime.stats`, a :class:`RuntimeStats` telemetry snapshot —
  jobs run, failures, cache hit/miss counters, and an EWMA of the per-job
  analyzer latency (from each schedule's in-worker wall time).

Results are **bit-identical** with and without a pool, whatever its
lifetime: the runtime drives the engine's own chunked executor
(:func:`repro.engine.executor.run_jobs_on`) or its serial loop, so only the
pool's lifetime changes, never the job semantics.

The runtime is thread-safe: concurrent ``run()`` calls share the pool (the
API server handles requests on multiple threads).  Use it as a context
manager, or call :meth:`close` for a graceful shutdown.
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Union

from .. import obs
from ..core import Schedule
from ..core.kernel import compilation_count as _kernel_compilations
from ..core.vector import (
    generation_pass_count,
    resolve_backend,
    vector_sweep_count,
)
from ..errors import AnalysisError, BatchExecutionError, EngineError, ServiceError
from .cache import PathLike, ResultCache
from .executor import (
    ProgressCallback,
    _pool_context,
    default_worker_count,
    run_generation_batched,
    run_jobs_on,
    run_jobs_serial,
)
from .jobs import AnalysisJob

__all__ = ["RuntimeStats", "EngineRuntime"]

#: EWMA factor of the per-job latency telemetry
_LATENCY_SMOOTHING = 0.2


def _smoothed(average: Optional[float], observed: float) -> float:
    """``average`` moved toward ``observed`` (``observed`` when there is none)."""
    if average is None:
        return observed
    return _LATENCY_SMOOTHING * observed + (1 - _LATENCY_SMOOTHING) * average


def _analysis_backend() -> str:
    """Resolved process-wide analysis backend for telemetry (never raises)."""
    try:
        return resolve_backend(None)
    except AnalysisError:
        return "python"


@dataclass(frozen=True)
class RuntimeStats:
    """Telemetry snapshot of an :class:`EngineRuntime` (see :meth:`~EngineRuntime.stats`)."""

    #: configured worker count (1 = serial, no pool)
    workers: int
    #: worker pools constructed so far (0 until the first pooled batch)
    pools_created: int
    #: batches executed through :meth:`EngineRuntime.run`
    batches: int
    #: jobs that completed with a schedule
    jobs_completed: int
    #: jobs that raised in a worker
    jobs_failed: int
    #: exponentially weighted moving average of per-job analyzer wall time
    latency_ewma_seconds: Optional[float]
    #: hit/miss counters of the runtime's shared result cache
    cache: Dict[str, int]
    #: problem-kernel compilations in this *process* so far (a process-wide
    #: counter, not a per-runtime one: compilations happen wherever a plain
    #: problem first meets an analyzer — including search entry points —
    #: and the interesting invariant is that warm overlay-based searches
    #: leave it flat)
    kernel_compilations: int = 0
    #: jobs that resumed from a parent schedule instead of analyzing cold
    #: (accumulated from each result's ``ScheduleStats.warm_start_hits``)
    warm_start_hits: int = 0
    #: per-job latency histogram (cumulative Prometheus buckets; see
    #: :class:`repro.obs.Histogram`), fed from the same in-worker wall times
    #: as the EWMA — None on snapshots taken before the accumulator existed
    latency_histogram: Optional[Dict[str, Any]] = None
    #: resolved analysis backend of this process (``vector``/``python``; see
    #: :mod:`repro.core.vector`) — what ``auto`` resolves to, not per-job truth
    analysis_backend: str = ""
    #: process-wide vectorized Jacobi sweeps executed so far (like
    #: ``kernel_compilations``, a process counter rather than a per-runtime one)
    vector_sweeps: int = 0
    #: process-wide batched generation passes executed so far
    generation_passes: int = 0

    @property
    def jobs_run(self) -> int:
        return self.jobs_completed + self.jobs_failed

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workers": self.workers,
            "pools_created": self.pools_created,
            "batches": self.batches,
            "jobs_completed": self.jobs_completed,
            "jobs_failed": self.jobs_failed,
            "jobs_run": self.jobs_run,
            "latency_ewma_seconds": self.latency_ewma_seconds,
            "cache": dict(self.cache),
            "kernel_compilations": self.kernel_compilations,
            "warm_start_hits": self.warm_start_hits,
            "analysis_backend": self.analysis_backend,
            "vector_sweeps": self.vector_sweeps,
            "generation_passes": self.generation_passes,
            **(
                {"latency_histogram": dict(self.latency_histogram)}
                if self.latency_histogram is not None
                else {}
            ),
        }


class EngineRuntime:
    """Execution runtime owning one worker pool for its whole lifetime.

    :param max_workers: worker count; ``None`` uses one per CPU.  Above one
        the jobs run on a process pool, ``1`` runs them serially in-process
        with no pool.
    :param cache: a :class:`~repro.engine.ResultCache`, a directory path
        (persistent store) or ``None`` (fresh memory-only cache); shared by
        every :class:`~repro.engine.BatchAnalyzer` and
        :class:`~repro.analysis.SearchDriver` bound to this runtime (unless
        they were given their own).
    :raises ServiceError: on an out-of-range worker count.
    """

    def __init__(
        self,
        *,
        max_workers: Optional[int] = None,
        cache: Union[ResultCache, PathLike, None] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ServiceError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = default_worker_count() if max_workers is None else int(max_workers)
        self.cache = cache if isinstance(cache, ResultCache) else ResultCache(path=cache)
        self._latency_ewma: Optional[float] = None
        self._algorithm_latency: Dict[str, float] = {}  # registry name -> EWMA
        self._latency_histogram = obs.Histogram()
        #: worker pools constructed so far — the acceptance-test hook proving
        #: that N batches + a whole search share a single construction
        self.pools_created = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._active = 0  # batches currently executing on the pool
        self._closed = False
        self._batches = 0
        self._jobs_completed = 0
        self._jobs_failed = 0
        self._warm_start_hits = 0
        self._cond = threading.Condition()

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------

    @property
    def workers(self) -> int:
        """Configured worker count (what adaptive speculation scales from)."""
        return self.max_workers

    def _acquire_pool(self) -> Optional[ProcessPoolExecutor]:
        """Register one running batch; returns the shared pool (None = serial).

        A runtime with more than one worker builds its pool on the first
        batch that needs one.  The batch counts as running only once the pool
        exists: a failed build (e.g. an invalid start method) must not leave
        :meth:`close` waiting for a batch that never started.
        """
        with self._cond:
            if self._closed:
                raise ServiceError("runtime is closed")
            if self.max_workers > 1 and self._pool is None:
                with obs.span("runtime.pool_build", workers=self.max_workers):
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.max_workers, mp_context=_pool_context()
                    )
                self.pools_created += 1
            self._active += 1
            return self._pool

    def _release_pool(self) -> None:
        with self._cond:
            self._active -= 1
            self._cond.notify_all()

    def close(self) -> None:
        """Graceful shutdown: wait for running batches, then stop the workers.

        Idempotent; after closing, :meth:`run` raises
        :class:`~repro.errors.ServiceError`.
        """
        with self._cond:
            self._closed = True
            while self._active > 0:
                self._cond.wait()
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "EngineRuntime":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(
        self,
        jobs: Sequence[AnalysisJob],
        *,
        chunksize: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> List[Schedule]:
        """Run ``jobs`` and return their schedules in submission order.

        An eligible overlay generation runs as one array pass; otherwise the
        jobs run on the warm pool, or serially in-process when the runtime
        has one worker.  ``chunksize=None`` picks a chunk size that gives
        each worker a few chunks (load balancing without per-job IPC).  A failing job does not abort the
        batch (a :class:`~repro.errors.BatchExecutionError` carrying the
        completed schedules is raised at the end).  Thread-safe: concurrent
        batches share the pool.

        :raises ServiceError: if the runtime is closed.
        :raises EngineError: if ``chunksize`` is below 1.
        :raises BatchExecutionError: when some jobs failed; ``results`` holds
            the completed schedules, ``failures`` the per-index messages.
        """
        if chunksize is not None and chunksize < 1:
            raise EngineError(f"chunksize must be >= 1, got {chunksize}")
        jobs = list(jobs)
        if not jobs:
            return []
        with obs.span("runtime.batch", jobs=len(jobs)):
            # an eligible overlay generation (same-kernel fixedpoint probes,
            # vector backend resolved) runs as one in-process 2-D array pass —
            # no pool acquisition, no payload pickling, bit-identical results.
            # The running-batch accounting still applies so close() waits.
            with self._cond:
                if self._closed:
                    raise ServiceError("runtime is closed")
                self._active += 1
            try:
                batched = run_generation_batched(jobs, progress)
            finally:
                self._release_pool()
            if batched is not None:
                self._record(jobs, batched)
                return batched
            pool = self._acquire_pool()
            try:
                if pool is None:
                    results = run_jobs_serial(jobs, progress)
                else:
                    results = run_jobs_on(
                        pool,
                        jobs,
                        workers=min(self.max_workers, len(jobs)),
                        chunksize=chunksize,
                        progress=progress,
                    )
            except BatchExecutionError as exc:
                self._record(jobs, exc.results)
                raise
            finally:
                self._release_pool()
            self._record(jobs, results)
            return results

    def _record(self, jobs: Sequence[AnalysisJob], results: Sequence[Optional[Schedule]]) -> None:
        completed = [
            (job.algorithm.strip().lower(), schedule)
            for job, schedule in zip(jobs, results)
            if schedule is not None
        ]
        with self._cond:
            self._batches += 1
            self._jobs_completed += len(completed)
            self._jobs_failed += len(jobs) - len(completed)
            for algorithm, schedule in completed:
                self._warm_start_hits += int(
                    getattr(schedule.stats, "warm_start_hits", 0) or 0
                )
                # per-job latency as measured inside the worker, not the batch
                # wall clock — pool queueing must not pollute the EWMA
                observed = float(schedule.stats.wall_time_seconds)
                self._latency_histogram.observe(observed)
                self._latency_ewma = _smoothed(self._latency_ewma, observed)
                self._algorithm_latency[algorithm] = _smoothed(
                    self._algorithm_latency.get(algorithm), observed
                )

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    @property
    def latency_ewma_seconds(self) -> Optional[float]:
        """EWMA of the per-job analyzer wall time over every algorithm's jobs
        (None before the first job); unlike :meth:`stats` it does not query
        the cache.
        """
        with self._cond:
            return self._latency_ewma

    def algorithm_latency(self, algorithm: str) -> Optional[float]:
        """EWMA of the wall time of ``algorithm``'s jobs (None before its first).

        What :class:`~repro.analysis.SearchDriver` sizes its lookahead from:
        a fixed-point search must not speculate as deep as cheap incremental
        jobs would allow.  Does not query the cache.
        """
        with self._cond:
            return self._algorithm_latency.get(algorithm.strip().lower())

    def stats(self) -> RuntimeStats:
        """Consistent telemetry snapshot of the runtime (cheap, lock-guarded)."""
        with self._cond:
            return RuntimeStats(
                workers=self.max_workers,
                pools_created=self.pools_created,
                batches=self._batches,
                jobs_completed=self._jobs_completed,
                jobs_failed=self._jobs_failed,
                latency_ewma_seconds=self._latency_ewma,
                cache=self.cache.stats_dict(),
                kernel_compilations=_kernel_compilations(),
                warm_start_hits=self._warm_start_hits,
                latency_histogram=self._latency_histogram.to_dict(),
                analysis_backend=_analysis_backend(),
                vector_sweeps=vector_sweep_count(),
                generation_passes=generation_pass_count(),
            )
