"""Cycle-level execution simulator for time-triggered schedules.

The simulator plays the computed schedule on a simple model of the platform:

* every task starts **exactly at its static release date** (time-triggered
  execution, as assumed by the paper — a task never starts early even if its
  inputs are ready);
* while running, a task interleaves computation cycles and shared-memory
  accesses; its isolation work (computation + un-contended access service
  time) equals the behaviour's actual execution time, which never exceeds the
  task's WCET;
* each memory bank serves one access at a time; concurrent requests are
  arbitrated cycle by cycle with a round-robin grant pointer (the policy of
  the paper's platform).  A core whose request is not granted stalls, which is
  exactly the interference the analysis upper-bounds.

The headline use of the simulator is the soundness check
(:meth:`SimulationResult.respects`): for *any* behaviour not exceeding the
declared WCETs/demands, every simulated finish time must stay within the
analysed window ``[release, release + R]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core import AnalysisProblem, Schedule
from ..errors import SimulationError
from .behavior import ExecutionBehavior

__all__ = ["SimulatedTask", "SimulationResult", "ExecutionSimulator", "simulate"]


@dataclass
class SimulatedTask:
    """Outcome of one task in a simulation run."""

    name: str
    core: int
    start: int
    finish: int
    stall_cycles: int
    accesses_performed: int

    @property
    def duration(self) -> int:
        return self.finish - self.start


@dataclass
class SimulationResult:
    """Outcome of a full simulation run."""

    tasks: Dict[str, SimulatedTask] = field(default_factory=dict)
    makespan: int = 0
    total_stall_cycles: int = 0
    precedence_violations: List[str] = field(default_factory=list)

    def task(self, name: str) -> SimulatedTask:
        try:
            return self.tasks[name]
        except KeyError:
            raise SimulationError(f"task {name!r} was not simulated") from None

    def respects(self, schedule: Schedule) -> bool:
        """True when every simulated task finished within its analysed window."""
        return not self.violations(schedule)

    def violations(self, schedule: Schedule) -> List[str]:
        """Tasks finishing after their analysed worst-case finish date, with details."""
        problems: List[str] = list(self.precedence_violations)
        for name, simulated in self.tasks.items():
            if name not in schedule:
                problems.append(f"task {name!r} simulated but absent from the schedule")
                continue
            analysed = schedule.entry(name)
            if simulated.start < analysed.release:
                problems.append(
                    f"task {name!r} started at {simulated.start} before its release "
                    f"{analysed.release}"
                )
            if simulated.finish > analysed.finish:
                problems.append(
                    f"task {name!r} finished at {simulated.finish}, after its analysed "
                    f"worst-case finish {analysed.finish}"
                )
        return problems


class _RunningTask:
    """Internal per-task execution state."""

    __slots__ = (
        "name",
        "core",
        "start",
        "compute_remaining",
        "access_plan",
        "gap_counter",
        "stall_cycles",
        "performed",
        "waiting_bank",
        "service_remaining",
    )

    def __init__(
        self,
        name: str,
        core: int,
        start: int,
        compute_cycles: int,
        access_plan: List[int],
    ) -> None:
        self.name = name
        self.core = core
        self.start = start
        self.compute_remaining = compute_cycles
        self.access_plan = access_plan  # list of bank ids, one entry per pending access
        self.gap_counter = self._spacing()
        self.stall_cycles = 0
        self.performed = 0
        self.waiting_bank: Optional[int] = None
        self.service_remaining = 0

    def _spacing(self) -> int:
        """Compute cycles to burn before the next access so accesses spread evenly."""
        if not self.access_plan:
            return 0
        return self.compute_remaining // (len(self.access_plan) + 1)

    def wants_to_request(self) -> bool:
        """True when the task should issue its next memory request this cycle."""
        return (
            self.service_remaining == 0
            and self.waiting_bank is None
            and bool(self.access_plan)
            and (self.gap_counter == 0 or self.compute_remaining == 0)
        )

    def issue_request(self) -> int:
        bank = self.access_plan.pop(0)
        self.waiting_bank = bank
        return bank

    def grant(self, latency: int) -> None:
        self.waiting_bank = None
        self.service_remaining = latency
        self.performed += 1
        self.gap_counter = self._spacing()

    def tick(self) -> None:
        """Advance the task by one cycle."""
        if self.service_remaining > 0:
            self.service_remaining -= 1
        elif self.waiting_bank is not None:
            self.stall_cycles += 1
        elif self.compute_remaining > 0:
            self.compute_remaining -= 1
            if self.gap_counter > 0:
                self.gap_counter -= 1

    def done(self) -> bool:
        return (
            self.compute_remaining == 0
            and not self.access_plan
            and self.waiting_bank is None
            and self.service_remaining == 0
        )


class ExecutionSimulator:
    """Simulate a schedule under a given execution behaviour."""

    def __init__(
        self,
        problem: AnalysisProblem,
        schedule: Schedule,
        behavior: Optional[ExecutionBehavior] = None,
        *,
        max_cycles: Optional[int] = None,
    ) -> None:
        if not schedule.schedulable:
            raise SimulationError("cannot simulate an unschedulable result")
        self.problem = problem
        self.schedule = schedule
        self.behavior = behavior or ExecutionBehavior.worst_case(problem)
        self.behavior.validate_against(problem)
        # generous default bound: twice the analysed makespan plus slack
        self.max_cycles = max_cycles or (2 * schedule.makespan + 1024)

    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        problem = self.problem
        schedule = self.schedule
        platform = problem.platform

        releases: List[Tuple[int, str]] = sorted(
            (entry.release, entry.name) for entry in schedule
        )
        predecessors = problem.effective_predecessor_map()
        release_index = 0
        running: Dict[int, _RunningTask] = {}  # core -> running task
        finished: Dict[str, SimulatedTask] = {}
        result = SimulationResult()
        core_modulus = max(platform.core_ids()) + 1
        grant_pointer: Dict[int, int] = {bank.identifier: 0 for bank in platform.banks()}
        bank_busy: Dict[int, int] = {bank.identifier: 0 for bank in platform.banks()}

        cycle = 0
        total = len(schedule)
        while len(finished) < total:
            if cycle > self.max_cycles:
                raise SimulationError(
                    f"simulation exceeded {self.max_cycles} cycles; "
                    "the schedule or the behaviour is inconsistent"
                )

            # ---- release tasks whose static release date is reached ----------
            while release_index < len(releases) and releases[release_index][0] <= cycle:
                release_time, name = releases[release_index]
                release_index += 1
                entry = schedule.entry(name)
                if entry.core in running:
                    raise SimulationError(
                        f"core {entry.core} is still busy with {running[entry.core].name!r} "
                        f"when {name!r} is released at {release_time}; the analysed schedule "
                        "does not cover this execution"
                    )
                # a task outside the problem has no entry; _start_task rejects it
                for pred in predecessors.get(name, ()):
                    if pred not in finished:
                        result.precedence_violations.append(
                            f"task {name!r} released at {release_time} before predecessor "
                            f"{pred!r} finished in the simulation"
                        )
                running[entry.core] = self._start_task(name, entry.core, cycle)

            # ---- free banks whose previous service completed ------------------
            for bank_id in bank_busy:
                if bank_busy[bank_id] > 0:
                    bank_busy[bank_id] -= 1

            # ---- tasks issue their next request (issuing consumes no time) ----
            for task in running.values():
                if task.wants_to_request():
                    task.issue_request()

            # ---- round-robin arbitration, one grant per free bank -------------
            for bank_id in sorted(bank_busy):
                if bank_busy[bank_id] > 0:
                    continue
                requesters = [
                    core
                    for core, task in running.items()
                    if task.waiting_bank == bank_id
                ]
                if not requesters:
                    continue
                pointer = grant_pointer[bank_id]
                granted = min(requesters, key=lambda core: ((core - pointer) % core_modulus, core))
                latency = platform.bank(bank_id).access_latency
                running[granted].grant(latency)
                bank_busy[bank_id] = latency
                grant_pointer[bank_id] = (granted + 1) % core_modulus

            # ---- every running task burns one cycle ----------------------------
            completed_cores: List[int] = []
            for core, task in running.items():
                task.tick()
                if task.done():
                    completed_cores.append(core)

            for core in completed_cores:
                task = running.pop(core)
                finished[task.name] = SimulatedTask(
                    name=task.name,
                    core=core,
                    start=task.start,
                    finish=cycle + 1,
                    stall_cycles=task.stall_cycles,
                    accesses_performed=task.performed,
                )

            cycle += 1

        result.tasks = finished
        result.makespan = max((task.finish for task in finished.values()), default=0)
        result.total_stall_cycles = sum(task.stall_cycles for task in finished.values())
        return result

    # ------------------------------------------------------------------

    def _start_task(self, name: str, core: int, cycle: int) -> _RunningTask:
        platform = self.problem.platform
        actual_time = self.behavior.execution_time(name)
        demand = self.behavior.accesses(name)
        access_plan: List[int] = []
        service_cost = 0
        for bank, count in sorted(demand.items()):
            access_plan.extend([bank] * count)
            service_cost += count * platform.bank(bank).access_latency
        # The declared demand is an upper bound that may not entirely fit inside
        # the execution time (abstract models such as Figure 1 of the paper use
        # small WCETs with symbolic access counts).  Performing fewer accesses
        # is always a legal behaviour (it can only reduce contention), so the
        # simulator drops the accesses that do not fit rather than rejecting
        # the run.
        while access_plan and service_cost > actual_time:
            bank = access_plan.pop()
            service_cost -= platform.bank(bank).access_latency
        compute_cycles = actual_time - service_cost
        return _RunningTask(
            name=name,
            core=core,
            start=cycle,
            compute_cycles=compute_cycles,
            access_plan=access_plan,
        )


def simulate(
    problem: AnalysisProblem,
    schedule: Schedule,
    behavior: Optional[ExecutionBehavior] = None,
) -> SimulationResult:
    """Convenience wrapper: build an :class:`ExecutionSimulator` and run it."""
    return ExecutionSimulator(problem, schedule, behavior).run()
