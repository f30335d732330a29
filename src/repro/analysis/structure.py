"""Structural what-if search: grids of topology/mapping edits over one parent.

The sensitivity searches of this package re-analyse one *fixed* task graph
under scaled parameters.  This module asks the orthogonal question — *what if
the structure itself changed?* — and answers it the same batched way: a grid
of single-edit :class:`~repro.core.StructureOverlay` deltas (remap a task to
another core, add a precedence edge, drop a task...) is evaluated as probe
generations through a :class:`~repro.analysis.SearchDriver`.

The parent problem is compiled into one kernel and analysed exactly once;
every probe is a :class:`~repro.core.PatchedProblem` sharing the parent
kernel's untouched rows and carrying a warm-start bundle derived from the
parent's schedule, so analyzers replay the unchanged prefix instead of
re-deriving it (bit-identical verdicts, counted by
``ScheduleStats.warm_start_hits``).  On a runtime-bound driver the grid fans
out across the warm pool without any additional kernel compilation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core import (
    AnalysisProblem,
    CompiledProblem,
    ParamOverlay,
    PatchedProblem,
    Schedule,
    StructureOverlay,
    analyze,
    compile_problem,
)
from ..errors import AnalysisError
from .search import SearchDriver, resolve_algorithm

__all__ = [
    "StructuralVerdict",
    "StructuralWhatIfResult",
    "remap_grid",
    "edge_grid",
    "structural_what_if",
]


def _as_kernel(problem: Union[AnalysisProblem, CompiledProblem]) -> CompiledProblem:
    if isinstance(problem, CompiledProblem):
        return problem
    return compile_problem(problem)


def remap_grid(
    problem: Union[AnalysisProblem, CompiledProblem],
    *,
    tasks: Optional[Sequence[str]] = None,
    cores: Optional[Sequence[int]] = None,
) -> List[StructureOverlay]:
    """Every single-task remapping of ``tasks`` onto ``cores``.

    One :meth:`~repro.core.StructureOverlay.remap_task` delta per (task,
    core) pair whose core differs from the task's current mapping — the
    mapping half of a topology what-if grid.  ``tasks`` defaults to every
    task, ``cores`` to every core of the platform.
    """
    kernel = _as_kernel(problem)
    names = list(tasks) if tasks is not None else list(kernel.names)
    targets = list(cores) if cores is not None else list(kernel.core_ids)
    grid: List[StructureOverlay] = []
    for name in names:
        current = kernel.core_of[kernel.index_of[name]]
        for core in targets:
            if core != current:
                grid.append(StructureOverlay.remap_task(name, core=core))
    return grid


def edge_grid(
    problem: Union[AnalysisProblem, CompiledProblem],
    *,
    volume: int = 0,
    limit: Optional[int] = None,
) -> List[StructureOverlay]:
    """Every acyclic single-edge addition, as add_edge deltas.

    Candidate edges run from an earlier task to a later one in the kernel's
    topological order (so no candidate can create a cycle) and skip pairs
    already connected by a direct dependency.  ``limit`` caps the grid size
    (first candidates in topological order); ``volume`` is the communication
    volume every added edge carries.
    """
    kernel = _as_kernel(problem)
    order = list(kernel.topo_order)
    grid: List[StructureOverlay] = []
    for position, producer in enumerate(order):
        existing = set(kernel.dependents_of(producer))
        for consumer in order[position + 1 :]:
            if consumer in existing:
                continue
            grid.append(
                StructureOverlay.add_edge(
                    kernel.names[producer], kernel.names[consumer], volume=volume
                )
            )
            if limit is not None and len(grid) >= limit:
                return grid
    return grid


@dataclass(frozen=True)
class StructuralVerdict:
    """Outcome of one structural probe."""

    #: probe problem name (parent name + edit summary)
    name: str
    #: the structure edit that was applied
    delta: StructureOverlay
    schedulable: bool
    #: makespan of the probe's schedule (None when unschedulable)
    makespan: Optional[int]
    #: 1 when the analyzer resumed from the parent schedule, 0 on a cold run
    warm_start_hits: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.delta.kind,
            "schedulable": self.schedulable,
            "makespan": self.makespan,
            "warm_start_hits": self.warm_start_hits,
        }


@dataclass(frozen=True)
class StructuralWhatIfResult:
    """Outcome of a structural what-if grid over one parent problem."""

    #: the parent's own schedule (the warm-start seed for every probe)
    parent: Schedule
    #: per-probe verdicts, in grid order
    verdicts: Tuple[StructuralVerdict, ...]

    @property
    def warm_start_hits(self) -> int:
        """Probes that resumed from the parent instead of analyzing cold."""
        return sum(verdict.warm_start_hits for verdict in self.verdicts)

    def schedulable(self) -> List[StructuralVerdict]:
        """The verdicts whose edited problem stayed schedulable."""
        return [verdict for verdict in self.verdicts if verdict.schedulable]

    def best(self) -> Optional[StructuralVerdict]:
        """The schedulable edit with the smallest makespan (None when none is)."""
        candidates = [v for v in self.schedulable() if v.makespan is not None]
        return min(candidates, key=lambda v: v.makespan) if candidates else None

    def to_dict(self) -> Dict[str, object]:
        return {
            "parent": {
                "name": self.parent.problem_name,
                "schedulable": self.parent.schedulable,
                "makespan": self.parent.makespan,
            },
            "warm_start_hits": self.warm_start_hits,
            "verdicts": [verdict.to_dict() for verdict in self.verdicts],
        }


def _probe_name(base: str, delta: StructureOverlay, index: int) -> str:
    if delta.kind == "remap_task":
        edit = f"remap-{delta.task}-c{delta.core}"
    elif delta.kind == "add_edge":
        edit = f"edge-{delta.producer}-{delta.consumer}"
    elif delta.kind == "remove_edge":
        edit = f"unedge-{delta.producer}-{delta.consumer}"
    elif delta.kind == "add_task":
        edit = f"add-{delta.task}"
    elif delta.kind == "remove_task":
        edit = f"drop-{delta.task}"
    else:
        edit = delta.kind
    return f"{base}~{index:03d}-{edit}"


def structural_what_if(
    problem: Union[AnalysisProblem, CompiledProblem],
    deltas: Sequence[StructureOverlay],
    *,
    driver: Optional[SearchDriver] = None,
    algorithm: Optional[str] = None,
) -> StructuralWhatIfResult:
    """Evaluate a grid of structural edits against one compiled parent.

    The parent is compiled once and analysed once; each delta becomes a
    warm-started :class:`~repro.core.PatchedProblem` probe, and the whole
    grid is evaluated as one :meth:`SearchDriver.evaluate` generation —
    cache-backed, fanned out over the driver's pool/runtime/fleet.  Without
    a ``driver`` the probes run serially through :func:`repro.core.analyze`
    (still warm-started — only the fan-out is lost).  Verdicts are
    bit-identical to cold analysis of each edited problem.

    :raises AnalysisError: on an empty delta grid.
    """
    if not deltas:
        raise AnalysisError("structural_what_if needs at least one delta")
    algorithm = resolve_algorithm(algorithm, driver)
    kernel = _as_kernel(problem)
    base = kernel.problem
    # analyse the parent as a no-op overlay over the compiled kernel: digests
    # identically to the plain problem (shares its cache entries) but reuses
    # this compilation instead of triggering a second one
    parent_probe = kernel.with_overlay(ParamOverlay(), name=base.name)
    if driver is not None:
        driver.begin_search()
        parent_schedule = driver.evaluate([parent_probe], remaining_generations=1)[0]
    else:
        parent_schedule = analyze(parent_probe, algorithm)
    probes = [
        PatchedProblem(
            kernel,
            delta,
            name=_probe_name(base.name, delta, index),
            parent_schedule=parent_schedule,
        )
        for index, delta in enumerate(deltas)
    ]
    if driver is not None:
        schedules = driver.evaluate(probes, remaining_generations=0)
    else:
        schedules = [analyze(probe, algorithm) for probe in probes]
    verdicts = tuple(
        StructuralVerdict(
            name=probe.name,
            delta=probe.delta,
            schedulable=schedule.schedulable,
            makespan=schedule.makespan if schedule.schedulable else None,
            warm_start_hits=int(schedule.stats.warm_start_hits),
        )
        for probe, schedule in zip(probes, schedules)
    )
    return StructuralWhatIfResult(parent=parent_schedule, verdicts=verdicts)
