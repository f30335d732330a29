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
added — on both sides — by :class:`_Accounting`, on integer tables built once
per run.  For a :class:`~repro.arbiter.base.PerCoreSumArbiter` (round-robin,
weighted round-robin, FIFO, null) a charge costs O(1) per shared bank; any
other arbiter is re-evaluated on the destination's full competitor map.

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
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..arbiter.base import PerCoreSumArbiter
from ..model import MemoryDemand
from .events import AnalysisTrace
from .kernel import CompiledProblem, OverlayProblem, compile_problem
from .problem import AnalysisProblem
from .schedule import Schedule, ScheduledTask, ScheduleStats
from .vector import resolve_backend

__all__ = ["IncrementalAnalyzer", "analyze_incremental"]

_INFINITY = float("inf")

#: sentinel: the warm start can reuse the parent schedule outright (no-op edit)
_WARM_REUSE = object()


class _AliveTask:
    """Mutable record of a task currently in the Alive set.

    ``finish`` grows as interference is charged.  ``row`` holds the task's
    accesses per bank slot; ``banks`` one ``(bank slot, bank id, x, state)``
    tuple per shared bank it accesses; ``per_bank`` its interference per bank
    id in first-charge order, or ``None`` when one bank carries it all.
    """

    __slots__ = (
        "index", "name", "core", "slot", "release", "wcet", "finish", "row", "banks", "per_bank"
    )

    def to_entry(self) -> ScheduledTask:
        per_bank = self.per_bank
        if per_bank is None:
            per_bank = {self.banks[0][1]: self.finish - self.release - self.wcet}
        return ScheduledTask(
            name=self.name,
            core=self.core,
            release=self.release,
            wcet=self.wcet,
            interference_by_bank=per_bank,
        )


def _charge_per_core_sum(dest: _AliveTask, slot: int, row: Sequence[int]) -> int:
    """Charge ``dest`` with a source on core slot ``slot``; returns the IBUS calls.

    ``x`` is the bank latency and ``state`` the headroom ``max(d·w_k − c_k, 0)``
    per core slot (infinite for an uncapped core), so the bound's growth
    ``latency × (min(d·w_k, new) − min(d·w_k, old))`` is ``latency ×
    min(accesses, headroom)``.
    """
    calls = 0
    per_bank = dest.per_bank
    for j, bank_id, latency, headroom in dest.banks:
        accesses = row[j]
        if accesses:
            calls += 1
            left = headroom[slot]
            if accesses < left:
                headroom[slot] = left - accesses
                gain = accesses * latency
            else:
                headroom[slot] = 0
                gain = left * latency
            if per_bank is not None:
                per_bank[bank_id] = per_bank.get(bank_id, 0) + gain
            dest.finish += gain
    return calls


class _Accounting:
    """Step 5 of Algorithm 1 on integer tables built once per run.

    Bank slots number the platform's shared banks and core slots follow
    ``kernel.core_ids``.  The tables come from the run's own ``demand``
    vector, so overlay probes are covered.  A charge counts one IBUS call
    per bank both tasks access.  On the per-core-sum path the checks of
    :func:`~repro.arbiter.base.check_request` hold by construction: demands
    are :class:`~repro.model.MemoryDemand` values, never negative, and
    callers skip sources on the destination's own core.
    """

    def __init__(self, kernel: CompiledProblem, demand: Sequence[MemoryDemand]) -> None:
        platform = kernel.problem.platform
        self.arbiter = arbiter = kernel.problem.arbiter
        self.core_ids = kernel.core_ids
        self.slot_of_core = {core: slot for slot, core in enumerate(kernel.core_ids)}
        self.banks = platform.shared_banks()
        slot_of_bank = {bank.identifier: j for j, bank in enumerate(self.banks)}
        #: per task: ``(bank slot, bank id, accesses)`` for each shared bank
        #: it accesses, in demand order
        self.shared: List[Tuple[Tuple[int, int, int], ...]] = []
        #: per task: access count per bank slot
        self.rows: List[List[int]] = []
        for task_demand in demand:
            pairs = []
            row = [0] * len(self.banks)
            for bank_id, accesses in task_demand.items():
                j = slot_of_bank.get(bank_id)
                if j is not None:
                    pairs.append((j, bank_id, accesses))
                    row[j] = accesses
                elif bank_id not in kernel.reserved_banks:
                    platform.bank(bank_id)  # raises: no such bank
            self.shared.append(tuple(pairs))
            self.rows.append(row)
        self.weights: Optional[List[float]] = None
        self.charge = self._charge_generic
        if type(arbiter).interference is PerCoreSumArbiter.interference:
            # w_k from the data interference() reads; no cap is an infinite cap
            caps = (arbiter.weights.get(core, arbiter.default_weight) for core in kernel.core_ids)
            self.weights = [_INFINITY if weight is None else weight for weight in caps]
            self.charge = _charge_per_core_sum

    def open(self, index: int, name: str, core: int, release: int, wcet: int) -> _AliveTask:
        """A fresh Alive record, charged with nothing yet."""
        item = _AliveTask()
        item.index = index
        item.name = name
        item.core = core
        item.slot = self.slot_of_core[core]
        item.release = release
        item.wcet = wcet
        item.finish = release + wcet
        item.row = self.rows[index]
        weights = self.weights
        item.per_bank = {}
        if weights is None:
            item.banks = tuple((j, bank_id, d, {}) for j, bank_id, d in self.shared[index])
        else:
            # the cap d·w_k, once per (destination, bank, core)
            item.banks = tuple(
                (j, bank_id, self.banks[j].access_latency, [d * w for w in weights])
                for j, bank_id, d in self.shared[index]
            )
            if len(item.banks) == 1:
                item.per_bank = None
        return item

    def _charge_generic(self, dest: _AliveTask, slot: int, row: Sequence[int]) -> int:
        """Any other arbiter: ``x`` is the destination's access count and
        ``state`` its ``{core: demand}`` competitor map, re-evaluated in full."""
        calls = 0
        core = self.core_ids[slot]
        per_bank = dest.per_bank
        for j, bank_id, d, competitors in dest.banks:
            accesses = row[j]
            if accesses:
                calls += 1
                competitors[core] = competitors.get(core, 0) + accesses
                old = per_bank.get(bank_id, 0)
                new = self.arbiter.interference(dest.core, d, competitors, self.banks[j])
                # Monotonicity of the arbiter guarantees new >= old; clamp
                # defensively so a misbehaving third-party arbiter cannot make
                # finish dates move backwards and break the algorithm's invariant.
                if new < old:
                    new = old
                per_bank[bank_id] = new
                dest.finish += new - old
        return calls


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
        The event loop is inherently sequential (the alive set is bounded by
        the core count), so both backends run the same loop: the resolved
        name is only recorded in ``ScheduleStats.backend``, and forcing
        ``"vector"`` without NumPy still raises.
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

        task_count = kernel.task_count
        if task_count == 0:
            stats = ScheduleStats(algorithm="incremental", kernel_compilations=compiled)
            return Schedule(
                [], algorithm="incremental", stats=stats, problem_name=problem_name
            )
        backend_used = resolve_backend(self.backend)

        # --- static problem data, straight from the kernel's index arrays -------
        names = kernel.names
        min_release = kernel.min_release
        pred_offsets, dep_offsets = kernel.pred_offsets, kernel.dep_offsets
        dep_list = kernel.dep_list
        #: unresolved effective-predecessor count per task (the kernel's CSR
        #: rows are deduplicated, so a plain countdown is exact)
        pending = [pred_offsets[i + 1] - pred_offsets[i] for i in range(task_count)]

        core_ids = kernel.core_ids
        core_orders = kernel.core_orders
        #: per core: cursor into its execution order (replaces the old deques)
        core_heads: List[int] = [0] * len(core_ids)

        # future-release scan: min-heap of (min_release, id) for tasks not yet
        # opened, used to find the next interesting future date in O(log n)
        future_heap = [(min_release[i], i) for i in range(task_count)]
        heapq.heapify(future_heap)

        # start the cursor at the earliest minimal release date: nothing can
        # open before it, so the old ``t = 0`` first step was a guaranteed
        # no-op whenever every task releases late
        start = min(min_release)

        accounting = _Accounting(kernel, demand)
        calls = 0
        warm_hits = 0
        resume = None
        if self.trace is None and getattr(problem, "warm", None) is not None:
            resume = self._warm_resume(problem, kernel, wcet, horizon, start, accounting)
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
                calls,
                t,
                unschedulable,
            ) = resume
            warm_hits = 1
        else:
            alive: Dict[int, _AliveTask] = {}
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
        # core slots whose head task waits for nothing but its minimal release
        # date; a task's pending count can only reach 0 once it heads its
        # core, since its core predecessor is one of its effective predecessors
        ready = [
            slot
            for slot, order in enumerate(core_orders)
            if core_heads[slot] < len(order) and not pending[order[core_heads[slot]]]
        ]
        core_of = kernel.core_of
        slot_of_core = accounting.slot_of_core
        # alive tasks that finish exactly at the cursor's next date (step 6
        # finds them while it scans for that date)
        due = [item for item in alive.values() if item.finish == t]
        charge = accounting.charge
        open_task = accounting.open
        loop_started = _time.perf_counter()
        while t < _INFINITY:
            cursor_steps += 1
            now = int(t)

            # ---- step 1-2: close tasks whose window ends exactly now ----------
            closing = due
            for item in closing:
                entries.append(item.to_entry())
                del alive[item.index]
                for consumer in dep_list[dep_offsets[item.index] : dep_offsets[item.index + 1]]:
                    pending[consumer] -= 1
                    if not pending[consumer]:
                        ready.append(slot_of_core[core_of[consumer]])

            # ---- step 3-4: open the next task of each core when possible ------
            opening: List[_AliveTask] = []
            if ready:
                ready.sort()  # open in core order
                waiting = []
                for slot in ready:
                    head = core_orders[slot][core_heads[slot]]
                    if min_release[head] > now:
                        waiting.append(slot)
                        continue
                    core_heads[slot] += 1
                    opening.append(open_task(head, names[head], core_ids[slot], now, wcet[head]))
                    opened[head] = True
                opened_count += len(opening)
                ready = waiting

            # ---- step 5: account interference between new and alive tasks ------
            # Each newly opened task exchanges interference with every task that
            # is already alive (and with the new tasks processed before it in
            # this very step), so each pair is charged once, in the step where
            # the later of the two opens; tasks on the same core never interfere.
            for item in opening:
                slot, row = item.slot, item.row
                for other in alive.values():
                    if other.slot == slot:
                        continue
                    calls += charge(other, slot, row)
                    calls += charge(item, other.slot, other.row)
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
            due = []
            for item in alive.values():
                finish = item.finish
                if finish < t_next:
                    t_next = finish
                    due = [item]
                elif finish == t_next:
                    due.append(item)
            # earliest *strictly future* minimal release date of an unopened task
            while future_heap and (future_heap[0][0] <= now or opened[future_heap[0][1]]):
                heapq.heappop(future_heap)
            if future_heap and future_heap[0][0] < t_next:
                t_next = future_heap[0][0]
                due = []

            if horizon is not None and t_next != _INFINITY and t_next > horizon:
                unschedulable = True
                break
            t = t_next

        obs.record_span(
            "incremental.event_loop",
            _time.perf_counter() - loop_started,
            tasks=task_count,
            cursor_steps=cursor_steps,
            ibus_calls=calls,
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
            ibus_calls=calls,
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

    def _warm_resume(self, problem, kernel, wcet, horizon, start, accounting):
        """Rebuild the cold run's state at the warm start's divergence bound.

        Before ``first_affected_time`` (``T``) the child's execution is in
        lockstep with the parent's, so the parent schedule determines the
        prefix exactly: entries finishing by ``T`` are final, tasks whose
        window straddles ``T`` are alive and charged with their pre-``T``
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
        straddling.sort(key=lambda entry: (entry.release, entry.core))
        sources = sorted(closed + straddling, key=lambda entry: (entry.release, entry.core))
        rows = accounting.rows
        slot_of_core = accounting.slot_of_core
        charge = accounting.charge
        calls = 0
        alive: Dict[int, _AliveTask] = {}
        for entry in straddling:
            idx = index_of[entry.name]
            item = accounting.open(idx, entry.name, entry.core, entry.release, wcet[idx])
            # each overlapping source once, chronologically, as in the cold run
            for src in sources:
                if src.core != entry.core and entry.overlaps(src):
                    calls += charge(item, slot_of_core[src.core], rows[index_of[src.name]])
            alive[idx] = item

        # --- arbiter calls charged to already-closed destinations -----------
        # chronological sweep over the prefix openings, mirroring the cold
        # run's pairwise exchange: per overlapping other-core pair, one call
        # per bank both tasks contend on, for each closed side (alive
        # destinations were counted while being charged above)
        straddling_names = {entry.name for entry in straddling}
        shared = accounting.shared
        active: List[ScheduledTask] = []
        for src in sources:
            active = [other for other in active if other.finish > src.release]
            src_row = rows[index_of[src.name]]
            for other in active:
                if other.core == src.core:
                    continue
                common = sum(1 for j, _bank, _d in shared[index_of[other.name]] if src_row[j])
                calls += common * (
                    (other.name not in straddling_names) + (src.name not in straddling_names)
                )
            active.append(src)

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
            calls,
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
