"""Task-to-core mapping and per-core execution order.

The analysis assumes the mapping and the execution order on each core have
already been decided (the paper's framework decides them in an earlier stage).
:class:`Mapping` stores, for each core identifier, the ordered list of task
names that will execute on it; the order is exactly the order in which the
incremental algorithm pops tasks from the per-core stacks (Algorithm 1).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping as TMapping, Optional, Sequence, Set, Tuple

from ..errors import MappingError, UnknownTaskError
from .taskgraph import TaskGraph

__all__ = ["Mapping"]


class Mapping:
    """Assignment of tasks to cores plus a total execution order per core."""

    def __init__(self, assignment: Optional[TMapping[int, Sequence[str]]] = None) -> None:
        self._order: Dict[int, List[str]] = {}
        self._core_of: Dict[str, int] = {}
        if assignment:
            for core, tasks in assignment.items():
                for task in tasks:
                    self.assign(task, int(core))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def assign(self, task: str, core: int, position: Optional[int] = None) -> None:
        """Append ``task`` to ``core``'s execution order (or insert at ``position``)."""
        core = int(core)
        if core < 0:
            raise MappingError(f"core identifier must be non-negative, got {core}")
        if task in self._core_of:
            raise MappingError(f"task {task!r} is already mapped to core {self._core_of[task]}")
        order = self._order.setdefault(core, [])
        if position is None:
            order.append(task)
        else:
            order.insert(position, task)
        self._core_of[task] = core

    def unassign(self, task: str) -> None:
        if task not in self._core_of:
            raise MappingError(f"task {task!r} is not mapped")
        core = self._core_of.pop(task)
        self._order[core].remove(task)
        if not self._order[core]:
            del self._order[core]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def core_of(self, task: str) -> int:
        """Core on which ``task`` executes."""
        try:
            return self._core_of[task]
        except KeyError:
            raise MappingError(f"task {task!r} is not mapped to any core") from None

    def is_mapped(self, task: str) -> bool:
        return task in self._core_of

    def order_on(self, core: int) -> List[str]:
        """Execution order of tasks on ``core`` (copy)."""
        return list(self._order.get(int(core), []))

    def cores(self) -> List[int]:
        """Cores that have at least one task, sorted."""
        return sorted(self._order.keys())

    @property
    def core_count(self) -> int:
        return len(self._order)

    @property
    def task_count(self) -> int:
        return len(self._core_of)

    def mapped_tasks(self) -> List[str]:
        return list(self._core_of.keys())

    def items(self) -> Iterator[Tuple[int, List[str]]]:
        for core in self.cores():
            yield core, list(self._order[core])

    def position_on_core(self, task: str) -> int:
        """Index of ``task`` in its core's execution order."""
        core = self.core_of(task)
        return self._order[core].index(task)

    def predecessor_on_core(self, task: str) -> Optional[str]:
        """Task executed immediately before ``task`` on the same core, if any."""
        core = self.core_of(task)
        order = self._order[core]
        idx = order.index(task)
        return order[idx - 1] if idx > 0 else None

    def core_predecessors(self) -> Dict[str, str]:
        """``{task: task executed just before it on its core}``, in one pass.

        First tasks of each core have no entry.  Build it once per analysis
        instead of calling :meth:`predecessor_on_core` per task, which scans
        the core's order.
        """
        return {
            task: previous
            for order in self._order.values()
            for previous, task in zip(order, order[1:])
        }

    def successor_on_core(self, task: str) -> Optional[str]:
        """Task executed immediately after ``task`` on the same core, if any."""
        core = self.core_of(task)
        order = self._order[core]
        idx = order.index(task)
        return order[idx + 1] if idx + 1 < len(order) else None

    def same_core(self, a: str, b: str) -> bool:
        return self.core_of(a) == self.core_of(b)

    def load(self, graph: TaskGraph) -> Dict[int, int]:
        """Total isolation WCET mapped on each core."""
        result: Dict[int, int] = {}
        for core, tasks in self.items():
            result[core] = sum(graph.task(name).wcet for name in tasks)
        return result

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self, graph: TaskGraph, *, require_complete: bool = True) -> None:
        """Check consistency between the mapping and a task graph.

        * every mapped task exists in the graph;
        * when ``require_complete``, every graph task is mapped;
        * the per-core order does not contradict the dependency order: if task
          ``a`` precedes ``b`` on the same core, then ``b`` must not be a
          (transitive) dependency of ``a``.  Such a contradiction would make
          the schedule infeasible regardless of timing.

        The order check is one Kahn pass over the dependencies plus each core's
        consecutive-order edges, O(tasks + edges).  A contradiction closes a
        cycle through its core's order, so if the pass orders every task there
        is none; else the walk naming it covers only the unordered tasks, which
        hold the whole cycle.  A cycle across cores without a same-core
        contradiction passes: the analyzers report the deadlock.
        """
        for task in self._core_of:
            if task not in graph:
                raise UnknownTaskError(task)
        if require_complete:
            unmapped = [t.name for t in graph if t.name not in self._core_of]
            if unmapped:
                raise MappingError(
                    "tasks not mapped to any core: " + ", ".join(sorted(unmapped)[:8])
                )
        after: Dict[str, str] = {}
        for order in self._order.values():
            after.update(zip(order, order[1:]))
        ordered = graph.kahn_order(after)
        if len(ordered) == len(graph):
            return
        unordered = set(graph.task_names()).difference(ordered)
        for core, tasks in self.items():
            order = [name for name in tasks if name in unordered]
            for index, name in enumerate(order):
                preds: Set[str] = set()
                stack = [name]
                while stack:
                    for pred in graph.predecessors(stack.pop()):
                        if pred in unordered and pred not in preds:
                            preds.add(pred)
                            stack.append(pred)
                conflict = preds.intersection(order[index + 1 :])
                if conflict:
                    raise MappingError(
                        f"core {core}: task {name!r} is ordered before its dependency "
                        f"{sorted(conflict)[0]!r}"
                    )

    # ------------------------------------------------------------------
    # value semantics / IO helpers
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[int, List[str]]:
        return {core: list(order) for core, order in self._order.items()}

    @classmethod
    def from_dict(cls, data: TMapping[int, Sequence[str]]) -> "Mapping":
        return cls(data)

    def copy(self) -> "Mapping":
        return Mapping(self.to_dict())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return f"Mapping(cores={self.core_count}, tasks={self.task_count})"
