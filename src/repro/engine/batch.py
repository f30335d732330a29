"""High-level batch API: :func:`analyze_many` and :class:`BatchAnalyzer`.

This is the throughput-oriented front door of the engine.  A batch run

1. wraps every problem in an :class:`~repro.engine.jobs.AnalysisJob`,
2. resolves each job against the :class:`~repro.engine.cache.ResultCache`
   (content digest + algorithm + schema version) — hits never reach a worker,
   and content-identical problems submitted in the same batch are analysed
   only once,
3. runs the misses on an :class:`~repro.engine.EngineRuntime` — the bound
   one, or one opened for this call and closed when it returns (serially,
   with no pool, for ``max_workers=1``),
4. stores fresh results back into the cache, and
5. returns schedules in the order the problems were submitted.

A warm cache therefore turns a whole sweep into pure lookups: re-running the
same sweep performs zero analyzer invocations (see the cache's hit/miss
counters in :attr:`BatchAnalyzer.cache`).
"""

from __future__ import annotations

from dataclasses import dataclass
import warnings
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .. import obs
from ..core import AnalysisProblem, OverlayProblem, Schedule
from ..core.analyzer import INCREMENTAL
from ..errors import BatchExecutionError, CacheError, EngineError
from .cache import PathLike, ResultCache
from .executor import (
    ProgressCallback,
    ProgressEvent,
    _summarize,
    default_worker_count,
)
from .jobs import AnalysisJob
from .runtime import EngineRuntime

__all__ = ["BatchReport", "BatchAnalyzer", "analyze_many"]


@dataclass
class BatchReport:
    """Outcome summary of one batch run (the schedules live in ``schedules``).

    ``computed`` counts actual analyzer invocations; ``cached`` counts jobs
    served without one (cache hits plus intra-batch duplicates); ``workers``
    is the number of workers actually used (0 when everything came from the
    cache, never more than the number of computed jobs).  ``structures``
    counts the distinct structure digests across the batch — a sensitivity
    sweep of N parameter variants of one problem reports ``structures == 1``,
    which is the shared-structure stratification the overlay path exploits.
    """

    schedules: List[Schedule]
    algorithm: str
    cached: int
    computed: int
    workers: int
    structures: int = 0

    @property
    def total(self) -> int:
        return self.cached + self.computed

    def __iter__(self):
        return iter(self.schedules)


class BatchAnalyzer:
    """Reusable batch front end bound to one algorithm, pool size and cache.

    :param algorithm: registry name of the analysis algorithm every job runs.
    :param max_workers: process-pool size for cache misses; ``None`` uses one
        worker per CPU, ``1`` runs strictly serially (no pool).  Must not be
        combined with ``runtime``.  Without a ``runtime``, each :meth:`run`
        opens an :class:`~repro.engine.EngineRuntime` with at most this many
        workers and closes it before returning.
    :param cache: a :class:`ResultCache`, a directory path (a persistent
        cache is created there), or ``None`` for a fresh memory-only cache.
    :param chunksize: jobs per worker chunk; ``None`` picks one that gives
        each worker a few chunks.
    :param runtime: binds the analyzer to a persistent
        :class:`~repro.engine.EngineRuntime`: cache misses then execute on the
        runtime's warm workers (zero pool constructions per batch) and, unless
        an explicit ``cache`` is given, the runtime's shared result cache is
        used.  Worker count and pool backend are the runtime's.
    :raises EngineError: when ``max_workers`` is passed alongside ``runtime``,
        or is below 1.

    :meth:`run` returns a :class:`BatchReport` and raises
    :class:`~repro.errors.BatchExecutionError` on partial failure (completed
    schedules preserved and cached) — identical schedules on every backend.
    """

    def __init__(
        self,
        algorithm: str = INCREMENTAL,
        *,
        max_workers: Optional[int] = None,
        cache: Union[ResultCache, PathLike, None] = None,
        chunksize: Optional[int] = None,
        runtime: Optional[EngineRuntime] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise EngineError(f"max_workers must be >= 1, got {max_workers}")
        self.algorithm = algorithm
        self.runtime = runtime
        if runtime is not None:
            if max_workers is not None:
                raise EngineError(
                    "pass max_workers to the EngineRuntime, not to BatchAnalyzer, "
                    "when a runtime is given"
                )
            if cache is None:
                cache = runtime.cache  # one cache shared by every runtime client
            max_workers = runtime.workers
        #: configured worker count (what adaptive speculation scales from)
        self.workers = default_worker_count() if max_workers is None else int(max_workers)
        self.chunksize = chunksize
        if isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(path=cache)

    def run(
        self,
        problems: Iterable[Union[AnalysisProblem, OverlayProblem]],
        *,
        progress: Optional[ProgressCallback] = None,
    ) -> BatchReport:
        """Analyse every problem; cached results are served without running.

        ``problems`` may mix plain problems and
        :class:`~repro.core.OverlayProblem` probes (compiled kernel +
        parameter delta); both digest identically for identical content, so
        the cache and the intra-batch dedup treat them interchangeably.
        """
        if not obs.tracing_enabled():
            return self._run(problems, progress=progress)
        with obs.span("batch.run", algorithm=self.algorithm) as phase:
            report = self._run(problems, progress=progress)
            phase.set(
                jobs=len(report.schedules),
                cached=report.cached,
                computed=report.computed,
            )
            return report

    def _run(
        self,
        problems: Iterable[Union[AnalysisProblem, OverlayProblem]],
        *,
        progress: Optional[ProgressCallback] = None,
    ) -> BatchReport:
        jobs = [
            AnalysisJob(problem=problem, algorithm=self.algorithm, index=index)
            for index, problem in enumerate(problems)
        ]
        total = len(jobs)
        schedules, misses, duplicates = self._lookup(jobs)
        hits = total - len(misses) - len(duplicates)
        if progress is not None and hits:
            progress(ProgressEvent(done=hits, total=total, job_name="(cache)"))

        def on_progress(event: ProgressEvent) -> None:
            progress(ProgressEvent(done=hits + event.done, total=total, job_name=event.job_name))

        failures, cache_broken = self._compute(
            jobs, schedules, misses, progress=on_progress if progress is not None else None
        )
        for index, source_index in duplicates.items():
            source = schedules[source_index]
            if source is None:
                # the job computing this duplicate's content failed; mark the
                # duplicate as failed too (below) rather than silently None
                continue
            schedules[index] = source.relabeled(jobs[index].name)
        if progress is not None and duplicates:
            progress(ProgressEvent(done=total, total=total, job_name="(deduplicated)"))

        if failures:
            for index, source_index in duplicates.items():
                if schedules[index] is None:
                    failures[index] = (
                        f"{jobs[index].name}: duplicate of failed job at index {source_index}"
                    )
            fate = "could not be cached" if cache_broken else "were cached"
            raise BatchExecutionError(
                f"{len(failures)} of {total} job(s) failed "
                f"(completed results {fate}): {_summarize(failures)}",
                failures=failures,
                results=schedules,
                results_cached=not cache_broken,
            )

        if any(schedule is None for schedule in schedules):
            raise EngineError("batch run finished with missing results")
        workers = min(self.workers, len(misses)) if misses else 0  # workers actually used
        return BatchReport(
            schedules=schedules,  # type: ignore[arg-type]
            algorithm=self.algorithm,
            cached=total - len(misses),  # cache hits + intra-batch duplicates
            computed=len(misses),
            workers=workers,
            structures=len({job.structure_digest for job in jobs}),
        )

    def _lookup(
        self, jobs: List[AnalysisJob]
    ) -> Tuple[List[Optional[Schedule]], List[int], Dict[int, int]]:
        """Lookup step: ``(schedules, misses, duplicates)`` of ``jobs``.

        One batched cache lookup for the whole list: the memory tier is swept
        in-process and the residue hits the persistent store as a single
        round trip (one SQLite transaction however large the batch).
        ``schedules`` holds each hit, relabeled for its job, and None
        elsewhere; ``misses`` lists the positions to compute, one per content
        key; ``duplicates`` maps every other position of a missed key to the
        position that computes it.  :class:`~repro.service.JobQueue` runs
        this step alone at submission.
        """
        schedules: List[Optional[Schedule]] = [None] * len(jobs)
        misses: List[int] = []
        pending: Dict[str, int] = {}  # cache key -> position of the job that computes it
        duplicates: Dict[int, int] = {}
        cached = self.cache.get_many([job.cache_key for job in jobs])
        for position, job in enumerate(jobs):
            key = job.cache_key
            hit = cached.get(key)
            if hit is not None:
                # the digest is content-based: a hit may have been produced
                # under another problem name, so relabel for this caller —
                # every position gets its own copy (schedules are mutable)
                schedules[position] = hit.relabeled(job.name)
            elif key in pending:
                duplicates[position] = pending[key]
            else:
                pending[key] = position
                misses.append(position)
        return schedules, misses, duplicates

    def _compute(
        self,
        jobs: List[AnalysisJob],
        schedules: List[Optional[Schedule]],
        misses: List[int],
        *,
        progress: Optional[ProgressCallback] = None,
    ) -> Tuple[Dict[int, str], bool]:
        """Compute step: run the ``misses`` positions of ``jobs`` and store them.

        Fresh schedules land in ``schedules`` at their positions and go to the
        cache in one ``put_many``.  Returns ``(failures, cache_broken)``: the
        messages of the positions that failed, and whether the cache refused
        the write.  :class:`~repro.service.JobQueue` runs this step alone on
        each drain, which holds only misses.
        """
        failures: Dict[int, str] = {}
        if not misses:
            return failures, False
        # without a bound runtime, a transient one lives for this call only,
        # sized to the misses (one worker: no pool at all)
        runtime = self.runtime
        if runtime is None:
            runtime = EngineRuntime(max_workers=min(self.workers, len(misses)), cache=self.cache)
        try:
            fresh = runtime.run(
                [jobs[position] for position in misses],
                chunksize=self.chunksize,
                progress=progress,
            )
        except BatchExecutionError as exc:
            # keep (and cache) what completed, with the miss-list positions
            # translated back to positions in ``jobs``
            fresh = exc.results
            failures = {misses[position]: message for position, message in exc.failures.items()}
        finally:
            if runtime is not self.runtime:
                runtime.close()
        fresh_entries = []
        for position, schedule in zip(misses, fresh):
            if schedule is None:
                continue
            schedules[position] = schedule
            job = jobs[position]
            # split digests ride along so the store can index the
            # structure half (structure-aware eviction / drop_structure)
            fresh_entries.append((job.cache_key, schedule, job.split_digests))
        if fresh_entries:
            try:
                # one transaction for the whole batch's fresh results
                self.cache.put_many(fresh_entries)
            except CacheError as exc:
                # never discard computed results over a cache failure
                warnings.warn(
                    f"result cache writes disabled for this batch: {exc}",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return failures, True
        return failures, False


def analyze_many(
    problems: Iterable[Union[AnalysisProblem, OverlayProblem]],
    algorithm: str = INCREMENTAL,
    *,
    max_workers: Optional[int] = None,
    cache: Union[ResultCache, PathLike, None] = None,
    chunksize: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    runtime: Optional[EngineRuntime] = None,
) -> List[Schedule]:
    """Analyse many problems at once; returns schedules in submission order.

    The parallel counterpart of :func:`repro.analyze`::

        from repro import analyze_many
        schedules = analyze_many(problems, max_workers=8, cache="~/.cache/repro")

    :param problems: the problems to analyse (consumed once; order defines
        the order of the returned schedules).
    :param algorithm: registry name of the analysis algorithm.
    :param max_workers: pool size; ``None`` uses one worker per CPU,
        ``1`` is a strictly serial fallback.  The pool lives for this call
        only.  Not combinable with ``runtime``.
    :param cache: :class:`~repro.engine.ResultCache` or directory path for a
        persistent cache shared across runs; ``None`` = fresh memory cache.
    :param chunksize: jobs per worker chunk (``None`` = automatic).
    :param progress: streamed :class:`~repro.engine.ProgressEvent` callback.
    :param runtime: execute on a persistent
        :class:`~repro.engine.EngineRuntime` (warm pool, shared cache)
        instead of a per-call pool.
    :raises BatchExecutionError: when some jobs failed; completed schedules
        are preserved on ``results`` (and cached) with messages per
        submission index on ``failures``.

    Results are independent of the worker count, pool lifetime and placement
    — every path produces schedules identical to the serial one.
    """
    analyzer = BatchAnalyzer(
        algorithm, max_workers=max_workers, cache=cache, chunksize=chunksize, runtime=runtime
    )
    return analyzer.run(problems, progress=progress).schedules
