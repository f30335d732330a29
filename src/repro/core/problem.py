"""Analysis problem: everything the response-time analysis needs as input.

An :class:`AnalysisProblem` bundles

* the task graph (:class:`repro.model.TaskGraph`),
* the task-to-core mapping with per-core execution order (:class:`repro.model.Mapping`),
* the platform (:class:`repro.platform.Platform`),
* the bus arbiter (:class:`repro.arbiter.BusArbiter`), and
* an optional ``horizon`` (global deadline): analyses declare the problem
  unschedulable when the makespan provably exceeds it.

Implicit same-core precedence
-----------------------------
A core executes one task at a time, in the order fixed by the mapping.  The
analyses therefore treat the predecessor of a task *on its own core* as an
additional dependency ("mapping edge").  :meth:`AnalysisProblem.effective_predecessors`
returns the union of graph dependencies and this implicit edge; both the
incremental algorithm and the fixed-point baseline use it, so they solve
exactly the same constraint system.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..arbiter import BusArbiter, default_arbiter
from ..errors import MappingError, ModelError, PlatformError
from ..model import Mapping, TaskGraph
from ..platform import Platform

__all__ = ["AnalysisProblem"]


class AnalysisProblem:
    """Immutable bundle of (graph, mapping, platform, arbiter, horizon)."""

    def __init__(
        self,
        graph: TaskGraph,
        mapping: Mapping,
        platform: Platform,
        arbiter: Optional[BusArbiter] = None,
        *,
        horizon: Optional[int] = None,
        name: Optional[str] = None,
        validate: bool = True,
    ) -> None:
        self.graph = graph
        self.mapping = mapping
        self.platform = platform
        self.arbiter = arbiter if arbiter is not None else default_arbiter(platform)
        if horizon is not None and int(horizon) <= 0:
            raise ModelError(f"horizon must be positive when given, got {horizon}")
        self.horizon = None if horizon is None else int(horizon)
        self.name = name or graph.name
        if validate:
            self.validate()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check cross-consistency of all the pieces; raises on violation.

        O(tasks + edges), the per-core orders included (:meth:`Mapping.validate`).
        """
        self.graph.validate()
        self.mapping.validate(self.graph, require_complete=True)
        for core in self.mapping.cores():
            if not self.platform.has_core(core):
                raise PlatformError(
                    f"mapping uses core {core} which does not exist on platform {self.platform.name!r}"
                )
        for task in self.graph:
            for bank in task.demand.banks():
                if not self.platform.has_bank(bank):
                    raise PlatformError(
                        f"task {task.name!r} accesses bank {bank} which does not exist "
                        f"on platform {self.platform.name!r}"
                    )
                reserved = self.platform.bank(bank).reserved_for
                if reserved is not None and self.mapping.core_of(task.name) != reserved:
                    raise MappingError(
                        f"task {task.name!r} (core {self.mapping.core_of(task.name)}) accesses "
                        f"bank {bank} reserved for core {reserved}"
                    )

    # ------------------------------------------------------------------
    # derived views used by the analyses
    # ------------------------------------------------------------------

    @property
    def task_count(self) -> int:
        return self.graph.task_count

    def effective_predecessors(self, name: str) -> Set[str]:
        """Graph dependencies plus the task executed just before on the same core."""
        preds = set(self.graph.predecessors(name))
        core_pred = self.mapping.predecessor_on_core(name)
        if core_pred is not None:
            preds.add(core_pred)
        return preds

    def effective_predecessor_map(self) -> Dict[str, Set[str]]:
        """``{task: effective predecessors}`` for every task (one dict, built once)."""
        core_pred_of = self.mapping.core_predecessors()
        result: Dict[str, Set[str]] = {}
        for task in self.graph:
            preds = set(self.graph.predecessors(task.name))
            core_pred = core_pred_of.get(task.name)
            if core_pred is not None:
                preds.add(core_pred)
            result[task.name] = preds
        return result

    def effective_successor_map(self) -> Dict[str, List[str]]:
        """Reverse of :meth:`effective_predecessor_map` (dependents of each task)."""
        successors: Dict[str, List[str]] = {task.name: [] for task in self.graph}
        for consumer, preds in self.effective_predecessor_map().items():
            for producer in preds:
                successors[producer].append(consumer)
        return successors

    def shared_bank_ids(self) -> List[int]:
        """Identifiers of banks on which interference can occur (non-reserved banks)."""
        return [bank.identifier for bank in self.platform.shared_banks()]

    def with_arbiter(self, arbiter: BusArbiter) -> "AnalysisProblem":
        """Copy of the problem under a different arbitration policy."""
        return AnalysisProblem(
            graph=self.graph,
            mapping=self.mapping,
            platform=self.platform,
            arbiter=arbiter,
            horizon=self.horizon,
            name=self.name,
            validate=False,
        )

    def with_horizon(self, horizon: Optional[int]) -> "AnalysisProblem":
        """Copy of the problem with a different global deadline."""
        return AnalysisProblem(
            graph=self.graph,
            mapping=self.mapping,
            platform=self.platform,
            arbiter=self.arbiter,
            horizon=horizon,
            name=self.name,
            validate=False,
        )

    def __repr__(self) -> str:
        return (
            f"AnalysisProblem({self.name!r}, tasks={self.graph.task_count}, "
            f"cores={self.mapping.core_count}, platform={self.platform.name!r}, "
            f"arbiter={self.arbiter.name!r})"
        )
