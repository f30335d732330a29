"""Chunked fan-out for analysis jobs, driven by :class:`~repro.engine.EngineRuntime`.

:func:`run_jobs_on` executes a list of :class:`~repro.engine.jobs.AnalysisJob`
on an executor the caller owns (the runtime's process pool):

* jobs are grouped into *chunks* so per-task IPC overhead is amortized over
  many small problems (one pickled payload round-trip per chunk, not per job);
* results are restored to **submission order** no matter which worker finishes
  first, so a parallel sweep is a drop-in replacement for a serial loop;
* an optional ``progress`` callback receives :class:`ProgressEvent` updates as
  chunks complete (streamed, not buffered until the end).

:func:`run_jobs_serial` is the same contract as a plain in-process loop — no
pool, no serialization, same results — and :func:`run_generation_batched` the
one-array-pass shortcut for an eligible overlay generation.

Workers rebuild each problem from its JSON payload (see
:meth:`AnalysisJob.from_payload`) and resolve the algorithm through the
registry of :mod:`repro.core.analyzer`.  Runtime-registered algorithms travel
*inside the payload* (re-registered by the worker before the job runs), so
plug-ins work under every multiprocessing start method — ``fork`` and
``spawn`` alike.  Set the ``REPRO_MP_START_METHOD`` environment variable to
pin the pool's start method (e.g. ``spawn`` to reproduce the
macOS/Windows default on Linux, which is also what CI does to guard the
payload-registration path).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import FIRST_COMPLETED, wait
from time import perf_counter as _perf_counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..core import Schedule
from ..core.vector import analyze_generation, generation_supported
from ..errors import BatchExecutionError, EngineError, ReproError
from .jobs import AnalysisJob

__all__ = [
    "ProgressEvent",
    "ProgressCallback",
    "START_METHOD_ENV",
    "default_worker_count",
    "run_generation_batched",
    "run_jobs_on",
    "run_jobs_serial",
]

#: environment variable pinning the pool's multiprocessing start method
START_METHOD_ENV = "REPRO_MP_START_METHOD"


def _pool_context() -> Optional[multiprocessing.context.BaseContext]:
    """Multiprocessing context for the pool (None = interpreter default)."""
    method = (os.environ.get(START_METHOD_ENV) or "").strip().lower()
    if not method:
        return None
    try:
        return multiprocessing.get_context(method)
    except ValueError as exc:
        raise EngineError(f"invalid {START_METHOD_ENV}={method!r}: {exc}") from exc


@dataclass(frozen=True)
class ProgressEvent:
    """One streamed progress update: ``done`` of ``total`` jobs finished."""

    done: int
    total: int
    job_name: str = ""

    @property
    def fraction(self) -> float:
        return (self.done / self.total) if self.total else 1.0


ProgressCallback = Callable[[ProgressEvent], None]


def default_worker_count() -> int:
    """Number of workers used when the caller does not pin one (CPU count)."""
    return max(1, os.cpu_count() or 1)


def _run_chunk(
    payloads: Sequence[Dict[str, Any]],
    structures: Optional[Dict[str, Any]] = None,
    traceparent: Optional[str] = None,
) -> List[Tuple[int, Dict[str, Any]]]:
    """Worker entry point: run every job of one chunk, return indexed outcomes.

    Each outcome is ``{"schedule": ...}`` or ``{"error": ...}`` — one failing
    job must not poison the other jobs of its chunk (or of the batch).
    ``structures`` is the chunk's shared parent-problem table for probe jobs
    (one entry per distinct parent content and task order, factored out of the
    payloads by :func:`run_jobs_on` so a chunk of N probes of one parent
    ships — and compiles — that parent once).

    When the submitting side was tracing, ``traceparent`` carries its trace
    position into the worker: the chunk runs under a local tracer continuing
    that trace, and the worker-side spans ride back serialized on the first
    outcome (``"spans"`` key) to be stitched into the parent's trace.
    """
    if traceparent is None:
        return _run_chunk_inner(payloads, structures)
    tracer = obs.Tracer.from_traceparent(
        traceparent, service=f"engine-worker:{os.getpid()}"
    )
    with tracer.activate():
        with obs.span("engine.chunk", jobs=len(payloads)):
            results = _run_chunk_inner(payloads, structures)
    if results:
        results[0][1]["spans"] = tracer.span_dicts()
    return results


def _run_chunk_inner(
    payloads: Sequence[Dict[str, Any]],
    structures: Optional[Dict[str, Any]],
) -> List[Tuple[int, Dict[str, Any]]]:
    results: List[Tuple[int, Dict[str, Any]]] = []
    for payload in payloads:
        job = AnalysisJob.from_payload(payload, structures=structures)
        try:
            with obs.span("job.run", job=job.name, algorithm=job.algorithm):
                results.append((job.index, {"schedule": job.run().to_dict()}))
        except Exception as exc:  # noqa: BLE001 - reported per job, batch continues
            results.append((job.index, {"error": f"{type(exc).__name__}: {exc}"}))
    return results


def _chunk(items: Sequence[Any], size: int) -> List[Sequence[Any]]:
    return [items[start : start + size] for start in range(0, len(items), size)]


def run_generation_batched(
    jobs: Sequence[AnalysisJob],
    progress: Optional[ProgressCallback] = None,
) -> Optional[List[Schedule]]:
    """One vectorized 2-D pass for an eligible overlay generation, else None.

    Eligible means: every job runs the same algorithm and
    :func:`repro.core.vector.generation_supported` holds for the problem list
    (``fixedpoint`` overlay probes sharing one compiled kernel, vector
    backend resolved).  Such a generation costs one lockstep array pass
    instead of a worker fan-out — and pays neither pool construction nor
    payload pickling — with schedules bit-identical to the per-job path.
    Returns None when the batch is not eligible (or the pass degrades, e.g.
    on a :class:`~repro.errors.ConvergenceError`): the caller then runs the
    jobs through its normal path, which also reproduces the per-job failure
    contract.
    """
    if not jobs:
        return None
    algorithm = jobs[0].algorithm
    if any(job.algorithm != algorithm for job in jobs):
        return None
    problems = [job.problem for job in jobs]
    if not generation_supported(problems, algorithm):
        return None
    try:
        results = analyze_generation(problems, algorithm)
    except ReproError:
        return None
    if progress is not None:
        total = len(jobs)
        for done, job in enumerate(jobs, start=1):
            progress(ProgressEvent(done=done, total=total, job_name=job.name))
    return results


def run_jobs_serial(
    jobs: Sequence[AnalysisJob],
    progress: Optional[ProgressCallback] = None,
) -> List[Schedule]:
    """Run ``jobs`` serially in-process: same registry path, no pool overhead.

    What :class:`~repro.engine.EngineRuntime` runs when it has no pool (one
    worker).  Failure semantics match the pooled path: every job runs, a
    :class:`~repro.errors.BatchExecutionError` is raised at the end.
    """
    jobs = list(jobs)
    total = len(jobs)
    results: List[Optional[Schedule]] = []
    failures: Dict[int, str] = {}
    for done, job in enumerate(jobs, start=1):
        try:
            with obs.span("job.run", job=job.name, algorithm=job.algorithm):
                results.append(job.run())
        except Exception as exc:  # noqa: BLE001 - collected, raised at the end
            results.append(None)
            failures[done - 1] = f"{job.name}: {type(exc).__name__}: {exc}"
        if progress is not None:
            progress(ProgressEvent(done=done, total=total, job_name=job.name))
    if failures:
        raise BatchExecutionError(
            f"{len(failures)} of {total} job(s) failed: {_summarize(failures)}",
            failures=failures,
            results=results,
        )
    return results  # type: ignore[return-value]


def run_jobs_on(
    pool: Any,
    jobs: Sequence[AnalysisJob],
    *,
    workers: int,
    chunksize: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[Schedule]:
    """Run ``jobs`` on an already-constructed executor, in submission order.

    ``pool`` is anything with the :class:`concurrent.futures.Executor`
    ``submit`` interface — in practice the process pool owned by an
    :class:`~repro.engine.EngineRuntime`.  The pool is *not* shut down
    here; its lifetime belongs to the caller (which is exactly what makes
    warm reuse across batches possible).  ``workers`` sizes the default
    chunking so each worker gets a few chunks; a given ``chunksize`` is at
    least 1 (:meth:`EngineRuntime.run` checks it).
    """
    jobs = list(jobs)
    total = len(jobs)
    if total == 0:
        return []
    if chunksize is None:
        chunksize = max(1, total // (max(1, workers) * 4))
    # when the caller is tracing, ship its trace position to the workers so
    # their spans come back stitched under the dispatching span
    traceparent = obs.current_traceparent()
    tracer = obs.current_tracer()
    dispatch_started = _perf_counter()
    # result ordering is defined by submission position; the caller's own
    # job.index is left untouched (it may carry outer-batch semantics)
    payloads = []
    for position, job in enumerate(jobs):
        payload = job.to_payload()
        payload["index"] = position
        payloads.append(payload)
    chunks = _chunk(payloads, chunksize)
    outcomes: Dict[int, Dict[str, Any]] = {}
    done = 0
    pending = {}
    for chunk in chunks:
        # factor the parent problems of probe jobs into one structure table
        # per chunk, keyed by the parent's content digest and task order: N
        # probes of one parent ship one parent document (and one parent
        # schedule per algorithm), and the worker's kernel memo compiles it once
        structures: Dict[str, Any] = {}
        stripped: List[Dict[str, Any]] = []
        for payload in chunk:
            base = payload.get("base_problem")
            if base is not None:
                base_digest = payload["base_digest"]
                structures.setdefault(base_digest, base)
                payload = {
                    key: value for key, value in payload.items() if key != "base_problem"
                }
                warm = payload.get("warm_start")
                if isinstance(warm, dict):
                    key = f"warm:{base_digest}:{warm.get('algorithm', '')}"
                    structures.setdefault(key, warm)
                    payload["warm_start"] = key
            stripped.append(payload)
        future = pool.submit(_run_chunk, stripped, structures or None, traceparent)
        pending[future] = [payload["index"] for payload in stripped]
    while pending:
        finished, _ = wait(pending, return_when=FIRST_COMPLETED)
        for future in finished:
            positions = pending.pop(future)
            last_name = ""
            try:
                chunk_outcomes = future.result()
            except Exception as exc:  # noqa: BLE001 - e.g. an unpicklable payload
                # the whole chunk is lost, but the batch must carry on
                chunk_outcomes = [
                    (position, {"error": f"{type(exc).__name__}: {exc}"})
                    for position in positions
                ]
            for position, outcome in chunk_outcomes:
                spans = outcome.pop("spans", None)
                if spans and tracer is not None:
                    tracer.record_foreign(spans)
                outcomes[position] = outcome
                done += 1
                last_name = jobs[position].name
            if progress is not None:
                progress(ProgressEvent(done=done, total=total, job_name=last_name))
    obs.record_span(
        "engine.dispatch",
        _perf_counter() - dispatch_started,
        jobs=total,
        chunks=len(chunks),
        chunksize=chunksize,
    )
    missing = [jobs[position].name for position in range(total) if position not in outcomes]
    if missing:
        raise EngineError(f"batch lost results for {len(missing)} job(s): {missing[:5]}")
    results: List[Optional[Schedule]] = []
    failures: Dict[int, str] = {}
    for position in range(total):
        outcome = outcomes[position]
        if "error" in outcome:
            results.append(None)
            failures[position] = f"{jobs[position].name}: {outcome['error']}"
        else:
            results.append(Schedule.from_dict(outcome["schedule"]))
    if failures:
        raise BatchExecutionError(
            f"{len(failures)} of {total} job(s) failed: {_summarize(failures)}",
            failures=failures,
            results=results,
        )
    return results  # type: ignore[return-value]


def _summarize(failures: Dict[int, str], limit: int = 3) -> str:
    shown = list(failures.values())[:limit]
    suffix = ", ..." if len(failures) > limit else ""
    return "; ".join(shown) + suffix
