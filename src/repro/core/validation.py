"""Schedule validation: invariant checks on the output of the analyses.

The validator re-derives, from the *final* schedule alone, every property the
time-triggered execution model relies on, and reports violations:

* every task of the problem appears in the schedule (when it claims to be
  schedulable) with the correct core and isolation WCET;
* no task is released before its minimal release date;
* no task is released before the worst-case finish of any of its effective
  predecessors (graph dependencies + previous task on the same core);
* two tasks mapped on the same core never have overlapping execution windows;
* the interference charged to every task is at least the interference obtained
  by re-running the arbiter on the set of tasks whose *final* windows overlap
  its own (soundness of the interference accounting);
* the makespan respects the problem horizon when one is set.

The checks are the formal counterpart of the guarantee quoted in Section II-B
of the paper: once release dates are fixed, the execution windows
``[rel, rel + R]`` of non-overlapping tasks are interference-free.
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import ValidationError
from .interference import interference_from_overlaps
from .problem import AnalysisProblem
from .schedule import Schedule

__all__ = ["validate_schedule", "schedule_violations", "interference_is_exact"]


def schedule_violations(problem: AnalysisProblem, schedule: Schedule) -> List[str]:
    """Return a list of human-readable invariant violations (empty when valid)."""
    violations: List[str] = []
    graph = problem.graph
    mapping = problem.mapping

    # -- completeness and per-task static data --------------------------------
    if schedule.schedulable:
        missing = [task.name for task in graph if task.name not in schedule]
        if missing:
            violations.append(
                "schedulable schedule is missing tasks: " + ", ".join(sorted(missing)[:8])
            )
    for entry in schedule:
        if entry.name not in graph:
            violations.append(f"schedule contains unknown task {entry.name!r}")
            continue
        task = graph.task(entry.name)
        if entry.wcet != task.wcet:
            violations.append(
                f"task {entry.name!r}: schedule wcet {entry.wcet} != model wcet {task.wcet}"
            )
        if mapping.is_mapped(entry.name) and entry.core != mapping.core_of(entry.name):
            violations.append(
                f"task {entry.name!r}: scheduled on core {entry.core} but mapped to "
                f"core {mapping.core_of(entry.name)}"
            )
        if entry.release < task.min_release:
            violations.append(
                f"task {entry.name!r}: released at {entry.release} before its minimal "
                f"release date {task.min_release}"
            )

    scheduled_names = set(schedule.task_names())

    # -- precedence ------------------------------------------------------------
    predecessors = problem.effective_predecessor_map()
    for entry in schedule:
        if entry.name not in graph:
            continue
        for pred in predecessors[entry.name]:
            if pred not in scheduled_names:
                if schedule.schedulable:
                    violations.append(
                        f"task {entry.name!r}: predecessor {pred!r} is not scheduled"
                    )
                continue
            pred_finish = schedule.entry(pred).finish
            if entry.release < pred_finish:
                violations.append(
                    f"task {entry.name!r}: released at {entry.release} before predecessor "
                    f"{pred!r} finishes at {pred_finish}"
                )

    # -- per-core mutual exclusion ----------------------------------------------
    for core, entries in schedule.by_core().items():
        for first, second in zip(entries, entries[1:]):
            if first.overlaps(second):
                violations.append(
                    f"core {core}: tasks {first.name!r} {first.window} and "
                    f"{second.name!r} {second.window} overlap"
                )

    # -- interference soundness ---------------------------------------------------
    for entry in schedule:
        if entry.name not in graph:
            continue
        task = graph.task(entry.name)
        sources: List[Tuple[str, int, object]] = []
        for other in schedule:
            if other.name == entry.name or other.core == entry.core:
                continue
            if other.name not in graph:
                continue
            if entry.overlaps(other):
                sources.append((other.name, other.core, graph.task(other.name).demand))
        required = interference_from_overlaps(
            entry.core, task.demand, sources, problem.arbiter, problem.platform
        )
        required_total = sum(required.values())
        if entry.interference < required_total:
            violations.append(
                f"task {entry.name!r}: charged interference {entry.interference} is below the "
                f"{required_total} cycles required by its overlapping tasks"
            )

    # -- horizon ------------------------------------------------------------------
    if problem.horizon is not None and schedule.schedulable and schedule.makespan > problem.horizon:
        violations.append(
            f"makespan {schedule.makespan} exceeds the horizon {problem.horizon} "
            "but the schedule claims to be schedulable"
        )

    return violations


def validate_schedule(problem: AnalysisProblem, schedule: Schedule) -> None:
    """Raise :class:`~repro.errors.ValidationError` when the schedule violates an invariant."""
    violations = schedule_violations(problem, schedule)
    if violations:
        raise ValidationError(
            f"schedule produced by {schedule.algorithm!r} violates {len(violations)} invariant(s):\n"
            + "\n".join("  - " + violation for violation in violations)
        )


def interference_is_exact(problem: AnalysisProblem, schedule: Schedule) -> bool:
    """True when every task's charged interference *equals* the interference
    recomputed from its final overlap set.

    Both algorithms shipped with the library satisfy this (their fixed point /
    incremental construction charges exactly the overlapping tasks); a merely
    *sound* third-party analysis may over-approximate and still pass
    :func:`validate_schedule` while failing this stricter check.
    """
    graph = problem.graph
    for entry in schedule:
        if entry.name not in graph:
            return False
        task = graph.task(entry.name)
        sources = [
            (other.name, other.core, graph.task(other.name).demand)
            for other in schedule
            if other.name != entry.name
            and other.core != entry.core
            and other.name in graph
            and entry.overlaps(other)
        ]
        required = interference_from_overlaps(
            entry.core, task.demand, sources, problem.arbiter, problem.platform
        )
        if sum(required.values()) != entry.interference:
            return False
    return True
