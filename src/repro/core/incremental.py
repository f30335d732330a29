"""Incremental interference analysis — the paper's contribution (Algorithm 1).

Instead of iterating global fixed points over all release dates and response
times (:mod:`repro.core.fixedpoint`), the schedule is built **incrementally**
with a time cursor ``t`` moving forward.  Tasks are partitioned into three
groups:

* **Closed** — ``t`` is past their finish date; release date *and* response
  time are final.
* **Alive** — ``t`` lies inside their execution window; the release date is
  final but the response time may still grow as new tasks are released.
* **Future** — not released yet; nothing is known.

At each step the cursor jumps to the next interesting date (the earliest
finish of an alive task or the earliest minimal release date of a future
task).  Tasks finishing at ``t`` are closed, tasks whose dependencies are all
closed (and whose minimal release date has passed, and which are next in
their core's execution order) are opened with ``release = t``, and the
interference between the newly opened tasks and the tasks currently alive is
added — on both sides — through :class:`repro.core.interference.InterferenceTracker`.

Because the number of simultaneously alive tasks is bounded by the number of
cores, the overall complexity is ``O(c² · b · n²)`` ≈ ``O(n²)`` for a fixed
platform (Section IV-B of the paper), compared to ``O(n⁴)`` for the baseline.

The analyzer runs on the integer-indexed :class:`~repro.core.kernel.CompiledProblem`
arrays: a plain :class:`~repro.core.problem.AnalysisProblem` is compiled on
entry (``ScheduleStats.kernel_compilations == 1``), while an
:class:`~repro.core.kernel.OverlayProblem` reuses its precompiled kernel
(``kernel_compilations == 0``) — which is what lets a sensitivity search over
hundreds of parameter variants walk the graph structure exactly once.  The
cursor starts at the earliest minimal release date rather than 0, skipping
the no-op step a workload whose every task releases late used to pay.
"""

from __future__ import annotations

import heapq
import time as _time
from typing import Dict, List, Optional, Tuple, Union

from .. import obs
from .events import AnalysisTrace
from .interference import IbusCallCounter, InterferenceTracker
from .kernel import OverlayProblem, compile_problem
from .problem import AnalysisProblem
from .schedule import Schedule, ScheduledTask, ScheduleStats
from .vector import _numpy, resolve_backend

__all__ = ["IncrementalAnalyzer", "analyze_incremental"]

_INFINITY = float("inf")

#: sentinel: the warm start can reuse the parent schedule outright (no-op edit)
_WARM_REUSE = object()


class _AliveTask:
    """Mutable record of a task currently in the Alive set."""

    __slots__ = ("index", "name", "core", "release", "wcet", "tracker")

    def __init__(
        self,
        index: int,
        name: str,
        core: int,
        release: int,
        wcet: int,
        tracker: InterferenceTracker,
    ) -> None:
        self.index = index
        self.name = name
        self.core = core
        self.release = release
        self.wcet = wcet
        self.tracker = tracker

    @property
    def finish(self) -> int:
        """Current worst-case finish date (grows monotonically while alive)."""
        return self.release + self.wcet + self.tracker.interference

    def to_entry(self) -> ScheduledTask:
        return ScheduledTask(
            name=self.name,
            core=self.core,
            release=self.release,
            wcet=self.wcet,
            interference_by_bank=self.tracker.interference_by_bank,
        )


class IncrementalAnalyzer:
    """Runs Algorithm 1 of the paper on an :class:`~repro.core.problem.AnalysisProblem`.

    Parameters
    ----------
    problem:
        The analysis problem (graph, mapping, platform, arbiter, horizon) —
        or an :class:`~repro.core.kernel.OverlayProblem`, whose precompiled
        kernel is reused instead of re-deriving the static structure.
    trace:
        Pass an :class:`~repro.core.events.AnalysisTrace` (or ``True`` to
        create one) to record a cursor event per iteration; retrieve it from
        :attr:`trace` after :meth:`run`.
    backend:
        ``"auto"``/``"vector"``/``"python"`` — see :mod:`repro.core.vector`.
        The event loop itself is inherently sequential (the alive set is
        bounded by the core count), so the vector backend only accelerates
        the release-propagation bookkeeping around it: the unresolved
        predecessor counts and the future-release scan come from NumPy
        array passes instead of a Python heap.  Cursor steps, IBUS calls
        and schedules are bit-identical either way.
    """

    def __init__(
        self,
        problem: Union[AnalysisProblem, OverlayProblem],
        *,
        trace: "AnalysisTrace | bool | None" = None,
        backend: Optional[str] = None,
    ) -> None:
        self.problem = problem
        self.backend = backend
        if trace is True:
            self.trace: Optional[AnalysisTrace] = AnalysisTrace()
        elif isinstance(trace, AnalysisTrace):
            self.trace = trace  # caller-provided recorder (possibly still empty)
        else:
            self.trace = None

    # ------------------------------------------------------------------

    def run(self) -> Schedule:
        """Compute the schedule.  Never raises for unschedulable inputs; inspect
        :attr:`Schedule.schedulable` instead."""
        if not obs.tracing_enabled():
            return self._run()
        with obs.span(
            "analyze.incremental", problem=getattr(self.problem, "name", "")
        ) as phase:
            schedule = self._run()
            phase.set(
                cursor_steps=schedule.stats.cursor_steps,
                ibus_calls=schedule.stats.ibus_calls,
                kernel_compilations=schedule.stats.kernel_compilations,
                schedulable=schedule.schedulable,
            )
            return schedule

    def _run(self) -> Schedule:
        started = _time.perf_counter()
        problem = self.problem
        if isinstance(problem, OverlayProblem):
            kernel = problem.kernel
            wcet = problem.wcet_vector()
            demand = problem.demand_vector()
            horizon = problem.horizon
            compiled = 0
        else:
            if problem.task_count == 0:
                stats = ScheduleStats(algorithm="incremental")
                return Schedule(
                    [], algorithm="incremental", stats=stats, problem_name=problem.name
                )
            kernel = compile_problem(problem)  # traced as kernel.compile
            wcet = kernel.wcet
            demand = kernel.demand
            horizon = kernel.horizon
            compiled = 1
        problem_name = problem.name
        platform = kernel.problem.platform
        arbiter = kernel.problem.arbiter
        counter = IbusCallCounter()

        task_count = kernel.task_count
        if task_count == 0:
            stats = ScheduleStats(algorithm="incremental", kernel_compilations=compiled)
            return Schedule(
                [], algorithm="incremental", stats=stats, problem_name=problem_name
            )

        # --- static problem data, straight from the kernel's index arrays -------
        names = kernel.names
        min_release = kernel.min_release
        core_of = kernel.core_of
        pred_offsets, dep_offsets = kernel.pred_offsets, kernel.dep_offsets
        dep_list = kernel.dep_list
        np = _numpy() if resolve_backend(self.backend) == "vector" else None
        backend_used = "vector" if np is not None else "python"
        #: unresolved effective-predecessor count per task (the kernel's CSR
        #: rows are deduplicated, so a plain countdown is exact)
        if np is not None:
            pending: List[int] = np.diff(
                np.asarray(pred_offsets, dtype=np.int64)
            ).tolist()
        else:
            pending = [
                pred_offsets[i + 1] - pred_offsets[i] for i in range(task_count)
            ]

        core_ids = kernel.core_ids
        core_orders = kernel.core_orders
        #: per core: cursor into its execution order (replaces the old deques)
        core_heads: List[int] = [0] * len(core_ids)

        # future-release scan: min-heap of (min_release, id) for tasks not yet
        # opened, used to find the next interesting future date in O(log n).
        # The cold vector path walks a NumPy-argsorted pointer instead: the
        # cursor and the opened flags are both monotone, so the pointer skips
        # exactly the elements the heap would pop, under the same conditions,
        # and yields the identical next future date.
        future_heap: List[Tuple[int, int]] = []
        future_order: Optional[List[int]] = None
        future_keys: Optional[List[int]] = None
        future_ptr = 0
        if np is None:
            future_heap = [(min_release[i], i) for i in range(task_count)]
            heapq.heapify(future_heap)

        # start the cursor at the earliest minimal release date: nothing can
        # open before it, so the old ``t = 0`` first step was a guaranteed
        # no-op whenever every task releases late
        start = min(min_release)

        warm_hits = 0
        resume = None
        if self.trace is None and getattr(problem, "warm", None) is not None:
            resume = self._warm_resume(
                problem, kernel, wcet, demand, horizon, start, counter
            )
        if resume is _WARM_REUSE:
            # no-op structural edit on the parent's own kernel: the parent
            # schedule *is* this problem's schedule, bit for bit
            parent_schedule = problem.warm.schedule
            stats = ScheduleStats(
                algorithm="incremental",
                cursor_steps=parent_schedule.stats.cursor_steps,
                ibus_calls=parent_schedule.stats.ibus_calls,
                wall_time_seconds=_time.perf_counter() - started,
                kernel_compilations=compiled,
                warm_start_hits=1,
            )
            return Schedule(
                parent_schedule.entries(),
                algorithm="incremental",
                schedulable=True,
                stats=stats,
                problem_name=problem_name,
            )

        if resume is not None:
            (
                entries,
                alive,
                pending,
                core_heads,
                future_heap,
                opened,
                opened_count,
                cursor_steps,
                t,
                unschedulable,
            ) = resume
            warm_hits = 1
            backend_used = "python"  # the resumed loop scans its own heap
        else:
            if np is not None:
                order = np.argsort(np.asarray(min_release, dtype=np.int64), kind="stable")
                future_order = order.tolist()
                future_keys = [min_release[i] for i in future_order]
            alive = {}
            entries = []
            opened = [False] * task_count
            opened_count = 0
            cursor_steps = 0
            unschedulable = False
            if horizon is not None and start > horizon:
                # even the first release lies beyond the deadline; mirror the
                # old behaviour exactly (one no-op cursor step at t = 0, then
                # abort)
                cursor_steps = 1
                if self.trace is not None:
                    self.trace.record(
                        time=0, closed=[], opened=[], alive=[], future_count=task_count
                    )
                unschedulable = True
                t = _INFINITY
            else:
                t = float(start)
        loop_started = _time.perf_counter()
        while t < _INFINITY:
            cursor_steps += 1
            now = int(t)

            # ---- step 1-2: close tasks whose window ends exactly now ----------
            closing = [item for item in alive.values() if item.finish == now]
            for item in closing:
                entries.append(item.to_entry())
                del alive[item.index]
                for consumer in dep_list[dep_offsets[item.index] : dep_offsets[item.index + 1]]:
                    pending[consumer] -= 1

            # ---- step 3-4: open the next task of each core when possible ------
            opening: List[_AliveTask] = []
            for slot, order in enumerate(core_orders):
                position = core_heads[slot]
                if position >= len(order):
                    continue
                head = order[position]
                if pending[head]:
                    continue
                if min_release[head] > now:
                    continue
                core_heads[slot] = position + 1
                core = core_ids[slot]
                tracker = InterferenceTracker(
                    name=names[head],
                    core=core,
                    demand=demand[head],
                    arbiter=arbiter,
                    platform=platform,
                    counter=counter,
                )
                item = _AliveTask(
                    index=head,
                    name=names[head],
                    core=core,
                    release=now,
                    wcet=wcet[head],
                    tracker=tracker,
                )
                opening.append(item)
                opened[head] = True
                opened_count += 1

            # ---- step 5: account interference between new and alive tasks ------
            # Each newly opened task exchanges interference with every task that
            # is already alive (and with the new tasks processed before it in
            # this very step); tasks on the same core never interfere.
            for item in opening:
                item_demand = demand[item.index]
                for other in alive.values():
                    if other.core == item.core:
                        continue
                    other.tracker.add_source(item.name, item.core, item_demand)
                    item.tracker.add_source(other.name, other.core, demand[other.index])
                alive[item.index] = item

            if self.trace is not None:
                self.trace.record(
                    time=now,
                    closed=[item.name for item in closing],
                    opened=[item.name for item in opening],
                    alive=sorted(item.name for item in alive.values()),
                    future_count=task_count - opened_count,
                )

            # ---- step 6: advance the cursor ------------------------------------
            t_next: float = _INFINITY
            for item in alive.values():
                finish = item.finish
                if finish < t_next:
                    t_next = finish
            # earliest *strictly future* minimal release date of an unopened task
            if future_order is not None:
                while future_ptr < task_count and (
                    future_keys[future_ptr] <= now or opened[future_order[future_ptr]]
                ):
                    future_ptr += 1
                if future_ptr < task_count and future_keys[future_ptr] < t_next:
                    t_next = future_keys[future_ptr]
            else:
                while future_heap and (
                    future_heap[0][0] <= now or opened[future_heap[0][1]]
                ):
                    heapq.heappop(future_heap)
                if future_heap and future_heap[0][0] < t_next:
                    t_next = future_heap[0][0]

            if horizon is not None and t_next != _INFINITY and t_next > horizon:
                unschedulable = True
                break
            t = t_next

        obs.record_span(
            "incremental.event_loop",
            _time.perf_counter() - loop_started,
            tasks=task_count,
            cursor_steps=cursor_steps,
            ibus_calls=counter.count,
        )

        # --- wrap up --------------------------------------------------------------
        # tasks still alive when the loop stopped (horizon exceeded) keep their
        # current — possibly still growing — interference for diagnostic purposes
        entries.extend(item.to_entry() for item in alive.values())
        never_opened = [names[i] for i in range(task_count) if not opened[i]]
        if never_opened:
            unschedulable = True

        makespan = max((entry.finish for entry in entries), default=0)
        if horizon is not None and makespan > horizon:
            unschedulable = True

        stats = ScheduleStats(
            algorithm="incremental",
            cursor_steps=cursor_steps,
            ibus_calls=counter.count,
            wall_time_seconds=_time.perf_counter() - started,
            kernel_compilations=compiled,
            warm_start_hits=warm_hits,
            backend=backend_used,
        )
        return Schedule(
            entries,
            algorithm="incremental",
            schedulable=not unschedulable,
            unscheduled=never_opened,
            stats=stats,
            problem_name=problem_name,
        )

    # ------------------------------------------------------------------
    # structural warm start
    # ------------------------------------------------------------------

    def _warm_resume(self, problem, kernel, wcet, demand, horizon, start, counter):
        """Rebuild the cold run's state at the warm start's divergence bound.

        Before ``first_affected_time`` (``T``) the child's execution is in
        lockstep with the parent's, so the parent schedule determines the
        prefix exactly: entries finishing by ``T`` are final, tasks whose
        window straddles ``T`` are alive with trackers fed by their pre-``T``
        overlaps, and the pre-``T`` cursor steps are replayed from the final
        windows alone (the cursor never visits a non-final finish date —
        openings happen only at steps, so a finish chosen as the next step
        cannot grow afterwards).  Returns ``None`` to run cold,
        :data:`_WARM_REUSE` for the no-op full-reuse path, or the complete
        resumable loop state.  Bit-identical to the cold run by construction —
        property-tested against it across the generator zoo.
        """
        warm = problem.warm
        sched = warm.schedule
        parent = problem.parent
        if (
            sched.algorithm != "incremental"
            or not sched.schedulable
            or sched.unscheduled
            or not problem.overlay.is_identity()
        ):
            return None
        if set(sched.task_names()) != set(parent.names):
            return None
        T = warm.first_affected_time
        if T is None:
            return _WARM_REUSE if kernel is parent else None
        if T <= start:
            return None
        if horizon is not None and start > horizon:
            return None

        names = kernel.names
        index_of = kernel.index_of
        min_release = kernel.min_release
        n = kernel.task_count
        dirty = warm.dirty

        # --- classify the parent prefix -----------------------------------
        closed: List[ScheduledTask] = []
        straddling: List[ScheduledTask] = []
        for entry in sched.entries():
            if entry.release >= T:
                continue
            idx = index_of.get(entry.name)
            if idx is None or idx in dirty:
                return None  # inconsistent warm-start metadata; run cold
            if entry.finish <= T:
                closed.append(entry)
            else:
                straddling.append(entry)

        opened = [False] * n
        for entry in closed:
            opened[index_of[entry.name]] = True
        for entry in straddling:
            opened[index_of[entry.name]] = True
        opened_count = len(closed) + len(straddling)

        pred_offsets, dep_offsets = kernel.pred_offsets, kernel.dep_offsets
        dep_list = kernel.dep_list
        pending = [pred_offsets[i + 1] - pred_offsets[i] for i in range(n)]
        for entry in closed:
            idx = index_of[entry.name]
            for consumer in dep_list[dep_offsets[idx] : dep_offsets[idx + 1]]:
                pending[consumer] -= 1

        # opened tasks must form a prefix of each per-core execution order
        core_heads: List[int] = []
        heads_total = 0
        for order in kernel.core_orders:
            head = 0
            while head < len(order) and opened[order[head]]:
                head += 1
            core_heads.append(head)
            heads_total += head
        if heads_total != opened_count:
            return None

        # --- skeleton replay: recount the pre-T cursor steps ---------------
        events = sorted(
            (entry.release, entry.finish, index_of[entry.name])
            for entry in closed + straddling
        )
        opened_sk = [False] * n
        rel_heap: List[Tuple[int, int]] = [(min_release[i], i) for i in range(n)]
        heapq.heapify(rel_heap)
        open_heap: List[int] = []
        event_index = 0
        cursor_steps = 0
        t_sk = start
        while True:
            now = t_sk
            cursor_steps += 1
            while event_index < len(events) and events[event_index][0] <= now:
                _release, finish, idx = events[event_index]
                event_index += 1
                opened_sk[idx] = True
                heapq.heappush(open_heap, finish)
            while open_heap and open_heap[0] <= now:
                heapq.heappop(open_heap)
            t_next: float = _INFINITY
            if open_heap:
                t_next = open_heap[0]
            while rel_heap and (
                rel_heap[0][0] <= now or opened_sk[rel_heap[0][1]]
            ):
                heapq.heappop(rel_heap)
            if rel_heap and rel_heap[0][0] < t_next:
                t_next = rel_heap[0][0]
            if t_next >= T:
                break
            if horizon is not None and t_next > horizon:
                return None  # the cold run aborts on the horizon before T
            t_sk = int(t_next)

        # --- rebuild the alive set (cold insertion order: release, core) ---
        platform = kernel.problem.platform
        arbiter = kernel.problem.arbiter
        straddling.sort(key=lambda entry: (entry.release, entry.core))
        sources = sorted(closed + straddling, key=lambda entry: (entry.release, entry.core))
        alive: Dict[int, _AliveTask] = {}
        for entry in straddling:
            idx = index_of[entry.name]
            tracker = InterferenceTracker(
                name=entry.name,
                core=entry.core,
                demand=demand[idx],
                arbiter=arbiter,
                platform=platform,
                counter=counter,
            )
            item = _AliveTask(
                index=idx,
                name=entry.name,
                core=entry.core,
                release=entry.release,
                wcet=wcet[idx],
                tracker=tracker,
            )
            # feed chronologically so the tracker state matches the cold run's
            for src in sources:
                if src.name == entry.name or src.core == entry.core:
                    continue
                if entry.overlaps(src):
                    item.tracker.add_source(src.name, src.core, demand[index_of[src.name]])
            alive[idx] = item

        # --- arbiter calls charged to already-closed destinations -----------
        # chronological sweep over the prefix openings, mirroring the cold
        # run's pairwise exchange: per overlapping other-core pair, one call
        # per bank both tasks contend on (alive destinations were recounted
        # naturally while feeding their trackers above)
        reserved = kernel.reserved_banks
        banks_of: Dict[int, List[int]] = {}
        for src in sources:
            idx = index_of[src.name]
            banks_of[idx] = [
                bank
                for bank, accesses in demand[idx].items()
                if accesses > 0 and bank not in reserved
            ]
        straddling_names = {entry.name for entry in straddling}
        extra_calls = 0
        active: List[ScheduledTask] = []
        for src in sources:
            active = [other for other in active if other.finish > src.release]
            src_idx = index_of[src.name]
            src_demand = demand[src_idx]
            for other in active:
                if other.core == src.core:
                    continue
                other_idx = index_of[other.name]
                other_demand = demand[other_idx]
                if other.name not in straddling_names:
                    extra_calls += sum(
                        1 for bank in banks_of[other_idx] if src_demand[bank] > 0
                    )
                if src.name not in straddling_names:
                    extra_calls += sum(
                        1 for bank in banks_of[src_idx] if other_demand[bank] > 0
                    )
            active.append(src)
        counter.count += extra_calls

        # --- the resume instant: the cold run's next step after the prefix --
        t_resume: float = _INFINITY
        if any(entry.finish == T for entry in closed):
            # a task closes exactly at T: the cold run visits T
            t_resume = float(T)
        for item in alive.values():
            finish = item.finish
            if finish < t_resume:
                t_resume = finish
        for i in range(n):
            if not opened[i] and min_release[i] >= T and min_release[i] < t_resume:
                t_resume = float(min_release[i])

        unschedulable = False
        if horizon is not None and t_resume != _INFINITY and t_resume > horizon:
            # the cold run would abort here without visiting t_resume
            unschedulable = True
            t_resume = _INFINITY

        entries: List[ScheduledTask] = list(closed)
        future_heap: List[Tuple[int, int]] = [
            (min_release[i], i) for i in range(n) if not opened[i]
        ]
        heapq.heapify(future_heap)
        return (
            entries,
            alive,
            pending,
            core_heads,
            future_heap,
            opened,
            opened_count,
            cursor_steps,
            t_resume,
            unschedulable,
        )


def analyze_incremental(
    problem: Union[AnalysisProblem, OverlayProblem],
    *,
    trace: "AnalysisTrace | bool | None" = None,
    backend: Optional[str] = None,
) -> Schedule:
    """Convenience wrapper: run :class:`IncrementalAnalyzer` and return the schedule."""
    return IncrementalAnalyzer(problem, trace=trace, backend=backend).run()


#: the registry dispatcher hands OverlayProblems straight through (no
#: materialization) — this analyzer consumes the compiled kernel natively
analyze_incremental.kernel_aware = True  # type: ignore[attr-defined]
