"""Asynchronous job queue in front of an :class:`~repro.engine.EngineRuntime`.

The runtime executes *batches*; a resident service receives *individual*
requests.  The :class:`JobQueue` bridges the two:

* :meth:`~JobQueue.submit` returns a :class:`concurrent.futures.Future`
  resolving to the problem's :class:`~repro.core.Schedule`;
* **hits are answered at submission**: a submission whose result the
  runtime's cache already holds gets a resolved future at once and never
  enters the queue, so a repeated question does not wait behind other
  clients' analyses;
* a dispatcher thread drains everything queued at each wake-up — only
  misses — in submission order, and runs it as **one** batch on the
  runtime — concurrent clients are automatically batched together and fan
  out over the warm pool;
* **coalescing**: a submission whose problem content digest (cache key:
  digest + algorithm + schema version) matches a queued *or in-flight* job
  does not enqueue new work — its future attaches to the existing job and
  receives a copy of the same schedule, relabeled with its own problem name;
* **bounded backpressure**: at most ``max_pending`` jobs may be queued;
  further submissions block until space frees up (or raise
  :class:`~repro.errors.QueueFullError` after ``timeout``), so a burst of
  clients cannot grow the queue without bound.

Failure of one job resolves only its own future(s) with the error; the rest
of the drained batch completes normally (the engine's partial-failure
semantics).  :meth:`~JobQueue.close` shuts the dispatcher down, by default
draining the remaining work first.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from .. import obs
from ..core import AnalysisProblem, OverlayProblem, Schedule
from ..core.analyzer import INCREMENTAL
from ..engine.batch import BatchAnalyzer
from ..engine.jobs import AnalysisJob
from ..engine.runtime import EngineRuntime
from ..errors import EngineError, QueueFullError, ServiceError

__all__ = ["QueueStats", "JobQueue"]


@dataclass(frozen=True)
class QueueStats:
    """Telemetry snapshot of a :class:`JobQueue` (see :meth:`~JobQueue.stats`)."""

    submitted: int
    completed: int
    failed: int
    coalesced: int
    cancelled: int
    batches: int
    pending: int
    in_flight: int
    max_pending: int
    #: submit-to-drain wait-time histogram (cumulative Prometheus buckets;
    #: see :class:`repro.obs.Histogram`); None on pre-histogram snapshots
    wait_histogram: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "coalesced": self.coalesced,
            "cancelled": self.cancelled,
            "batches": self.batches,
            "pending": self.pending,
            "in_flight": self.in_flight,
            "max_pending": self.max_pending,
            **(
                {"wait_histogram": dict(self.wait_histogram)}
                if self.wait_histogram is not None
                else {}
            ),
        }


class _Entry:
    """One unit of queued work plus every future coalesced onto it."""

    __slots__ = ("job", "key", "waiters", "enqueued", "tracer", "parent_span_id")

    def __init__(self, job: AnalysisJob) -> None:
        self.job = job  # its digests were computed at submission
        self.key = job.cache_key
        #: (future, problem name) pairs; the first is the originating submission
        self.waiters: List[Tuple[Future, str]] = []
        #: submission instant (wait-time telemetry reference point)
        self.enqueued = time.perf_counter()
        #: the submitter's trace position — the dispatcher thread records the
        #: wait span and stitches batch spans back under it
        self.tracer = obs.current_tracer()
        self.parent_span_id = obs.current_span_id()


class JobQueue:
    """FIFO job queue with digest coalescing and bounded backpressure.

    Every submission is looked up in the runtime's cache first; hits are
    answered at submission and only misses are queued.  Coalescing (see the
    module docs) always applies, so a drained batch never holds two entries
    of one content key.

    :param runtime: the :class:`~repro.engine.EngineRuntime` the drained
        batches execute on; its shared result cache answers repeat content at
        submission, without any analyzer invocation.
    :param algorithm: default per-submission algorithm name.
    :param max_pending: bound on queued (not yet running) jobs; at the bound
        :meth:`submit` blocks, then raises
        :class:`~repro.errors.QueueFullError` on timeout.
    :raises ServiceError: on a non-positive bound, and from :meth:`submit`
        after :meth:`close`.
    """

    def __init__(
        self,
        runtime: EngineRuntime,
        *,
        algorithm: str = INCREMENTAL,
        max_pending: int = 1024,
    ) -> None:
        if max_pending < 1:
            raise ServiceError(f"max_pending must be >= 1, got {max_pending}")
        self.runtime = runtime
        self.algorithm = algorithm
        self.max_pending = int(max_pending)
        self._cond = threading.Condition()
        self._pending: List[_Entry] = []  # submission order
        self._queued: Dict[str, _Entry] = {}  # cache key -> queued entry
        self._running: Dict[str, _Entry] = {}  # cache key -> in-flight entry
        self._closed = False
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._coalesced = 0
        self._cancelled = 0
        self._batches = 0
        self._wait_histogram = obs.Histogram()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-jobqueue", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(
        self,
        problem: Union[AnalysisProblem, OverlayProblem],
        *,
        algorithm: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> "Future[Schedule]":
        """Enqueue ``problem``; returns a future resolving to its schedule.

        Blocks while the queue is at its ``max_pending`` bound; ``timeout``
        limits that wait (:class:`~repro.errors.QueueFullError` on expiry).
        Cache hits (returned already resolved) and coalesced submissions
        (identical content digest + algorithm already queued or running)
        never block — they add no work.
        """
        return self.map([problem], algorithm=algorithm, timeout=timeout)[0]

    def map(
        self,
        problems: List[Union[AnalysisProblem, OverlayProblem]],
        *,
        algorithm: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> List["Future[Schedule]"]:
        """Submit every problem as one burst; futures in submission order.

        Unlike a loop of :meth:`submit` calls, the whole burst is looked up
        in one cache round trip — a warm ``POST /batch`` of K cached jobs
        costs O(1) store transactions and drains no batch — and its misses
        are enqueued under a single lock acquisition with one dispatcher
        wake-up at the end, so an otherwise-idle queue drains them as **one**
        batch.  Backpressure still applies: when the misses overflow
        ``max_pending`` the excess waits for the dispatcher mid-burst
        (several batches then).
        """
        if self._closed:
            raise ServiceError("job queue is closed")
        algorithm = algorithm if algorithm is not None else self.algorithm
        # the digests and the burst's one cache lookup run outside the lock:
        # hashing K problems must not stall the dispatcher or concurrent
        # submitters.  Each hit's future resolves here, before any lock
        # (done-callbacks run inline); its problem never enters the queue
        jobs = [AnalysisJob(problem=problem, algorithm=algorithm) for problem in problems]
        hits = BatchAnalyzer(algorithm, runtime=self.runtime)._lookup(jobs)[0]
        futures: List["Future[Schedule]"] = [Future() for _ in jobs]
        for future, hit in zip(futures, hits):
            if hit is not None:
                future.set_result(hit)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            for job, future, hit in zip(jobs, futures, hits):
                if self._closed:
                    raise ServiceError("job queue is closed")
                if hit is not None:
                    self._submitted += 1
                    self._completed += 1
                    continue
                key = job.cache_key
                existing = self._queued.get(key) or self._running.get(key)
                while (
                    existing is None
                    and len(self._pending) >= self.max_pending
                    and not self._closed
                ):
                    # wake the dispatcher first: the entries enqueued so far
                    # in this burst have not been announced yet, and draining
                    # them is the only way space can free up
                    self._cond.notify_all()
                    remaining = None if deadline is None else deadline - time.monotonic()
                    if remaining is not None and remaining <= 0:
                        raise QueueFullError(
                            f"job queue is full ({self.max_pending} pending) and the "
                            f"submission timed out after {timeout}s"
                        )
                    self._cond.wait(remaining)
                    # re-check after a backpressure wait: another submitter of
                    # the same content may have enqueued it while we blocked
                    existing = self._queued.get(key) or self._running.get(key)
                if self._closed:
                    raise ServiceError("job queue is closed")
                self._submitted += 1
                if existing is not None:
                    existing.waiters.append((future, job.name))
                    self._coalesced += 1
                    continue
                entry = _Entry(job)
                entry.waiters.append((future, job.name))
                self._pending.append(entry)
                self._queued[key] = entry
            self._cond.notify_all()
        return futures

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------

    def _drain(self) -> List[_Entry]:
        """Take every queued entry, in submission order (under the lock)."""
        batch, self._pending = self._pending, []
        drained_wall = time.time()
        for entry in batch:
            del self._queued[entry.key]
            self._running[entry.key] = entry
            wait = max(time.perf_counter() - entry.enqueued, 0.0)
            self._wait_histogram.observe(wait)
            if entry.tracer is not None:
                entry.tracer.record_completed(
                    "queue.wait",
                    wait,
                    start=drained_wall - wait,
                    parent_id=entry.parent_span_id,
                    problem=entry.job.name,
                )
        return batch

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending and self._closed:
                    return
                batch = self._drain()
                self._batches += 1
                self._cond.notify_all()  # backpressure: queued slots freed
            try:
                self._execute(batch)
            except BaseException as exc:  # noqa: BLE001 - the loop must survive
                self._resolve(batch, {entry: exc for entry in batch}, {})

    def _execute(self, batch: List[_Entry]) -> None:
        """Run one drained batch (grouped by algorithm) and resolve its futures."""
        # the dispatcher thread has no trace context of its own; when the
        # batch carries traced submissions, execute under the first
        # submitter's tracer so runtime/engine/analyzer spans stitch into its
        # trace (a mixed drain attaches the shared batch spans to that first
        # trace — the per-entry queue.wait spans are always exact)
        traced = next((entry for entry in batch if entry.tracer is not None), None)
        if traced is None:
            self._execute_groups(batch)
            return
        with traced.tracer.activate(parent_id=traced.parent_span_id):
            self._execute_groups(batch)

    def _execute_groups(self, batch: List[_Entry]) -> None:
        # outcomes are keyed by entry *identity*: coalescing keeps one entry
        # per content key in a drain, and each entry resolves its own futures
        schedules: Dict[_Entry, Schedule] = {}
        errors: Dict[_Entry, BaseException] = {}
        groups: Dict[str, List[_Entry]] = {}
        for entry in batch:
            groups.setdefault(entry.job.algorithm, []).append(entry)
        for algorithm, entries in groups.items():
            # the analyzer is pool-free (the runtime owns the pool) and shares
            # the runtime's cache, so constructing one per drain is cheap.
            # Every entry missed the cache at submission and its key is
            # unique in the drain, so only the compute step runs here
            analyzer = BatchAnalyzer(algorithm, runtime=self.runtime)
            results: List[Optional[Schedule]] = [None] * len(entries)
            failures, _ = analyzer._compute(
                [entry.job for entry in entries], results, list(range(len(entries)))
            )
            for index, entry in enumerate(entries):
                if results[index] is not None:
                    schedules[entry] = results[index]
                else:
                    message = failures.get(index, f"{entry.job.name}: job was lost")
                    errors[entry] = EngineError(message)
        self._resolve(batch, errors, schedules)

    def _resolve(
        self,
        batch: List[_Entry],
        errors: Dict[_Entry, BaseException],
        schedules: Dict[_Entry, Schedule],
    ) -> None:
        with self._cond:
            # once popped, no new waiter can coalesce onto these entries, so
            # iterating entry.waiters below (outside the lock) is race-free
            for entry in batch:
                if self._running.get(entry.key) is entry:
                    del self._running[entry.key]
            self._cond.notify_all()
        # futures are resolved outside the lock: done-callbacks run inline
        completed = failed = cancelled = 0
        for entry in batch:
            error = errors.get(entry)
            schedule = schedules.get(entry)
            for position, (future, name) in enumerate(entry.waiters):
                if not future.set_running_or_notify_cancel():
                    cancelled += 1
                    continue  # cancelled while queued
                if error is not None:
                    future.set_exception(error)
                    failed += 1
                    continue
                if position == 0:
                    future.set_result(schedule)
                else:
                    # coalesced follower: same content, its own copy (futures
                    # must not share one mutable schedule) and its own label
                    future.set_result(schedule.relabeled(name))
                completed += 1
        with self._cond:
            self._completed += completed
            self._failed += failed
            self._cancelled += cancelled

    # ------------------------------------------------------------------
    # lifecycle / telemetry
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Jobs queued but not yet drained into a batch."""
        with self._cond:
            return len(self._pending)

    def close(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting work and shut the dispatcher down.

        ``drain=True`` (default) lets the dispatcher finish everything already
        queued; ``drain=False`` cancels queued jobs (their futures report
        cancellation) and only waits for the in-flight batch.  Idempotent.
        """
        cancelled: List[_Entry] = []
        with self._cond:
            self._closed = True
            if not drain:
                cancelled, self._pending = self._pending, []
                for entry in cancelled:
                    del self._queued[entry.key]
            self._cond.notify_all()
        cancelled_futures = sum(
            1 for entry in cancelled for future, _ in entry.waiters if future.cancel()
        )
        if cancelled_futures:
            with self._cond:
                self._cancelled += cancelled_futures
        self._dispatcher.join(timeout)

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def stats(self) -> QueueStats:
        """Consistent telemetry snapshot of the queue."""
        with self._cond:
            return QueueStats(
                submitted=self._submitted,
                completed=self._completed,
                failed=self._failed,
                coalesced=self._coalesced,
                cancelled=self._cancelled,
                batches=self._batches,
                pending=len(self._pending),
                in_flight=len(self._running),
                max_pending=self.max_pending,
                wait_histogram=self._wait_histogram.to_dict(),
            )
