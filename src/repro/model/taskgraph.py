"""Directed acyclic task graph.

The :class:`TaskGraph` is the central input structure of the analysis: a set
of :class:`~repro.model.task.Task` nodes and directed dependency edges between
them.  An edge ``(producer, consumer)`` means the consumer must not start
before the producer has finished; edges optionally carry the number of words
the producer writes for the consumer (the edge labels of Figure 1 in the
paper), which the generators use to derive memory demands.

The graph is implemented with plain dictionaries rather than :mod:`networkx`
so that the hot analysis loops iterate over simple data structures; a
:meth:`TaskGraph.to_networkx` exporter is provided for interoperability and
for the visualization helpers.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..errors import CyclicDependencyError, GraphError, UnknownTaskError
from .task import MemoryDemand, Task

__all__ = ["Dependency", "TaskGraph"]


class Dependency:
    """A directed edge of the task graph.

    Attributes
    ----------
    producer / consumer:
        Names of the source and destination tasks.
    volume:
        Number of words written by the producer for the consumer (the edge
        label in Figure 1 of the paper).  Purely informative for the analysis
        itself — memory demand lives on tasks — but used by the generators and
        the dataflow expansion to derive task demands.
    """

    __slots__ = ("producer", "consumer", "volume")

    def __init__(self, producer: str, consumer: str, volume: int = 0) -> None:
        if producer == consumer:
            raise GraphError(f"self dependency on task {producer!r}")
        if int(volume) < 0:
            raise GraphError(f"dependency volume must be non-negative, got {volume}")
        self.producer = producer
        self.consumer = consumer
        self.volume = int(volume)

    def as_tuple(self) -> Tuple[str, str, int]:
        return (self.producer, self.consumer, self.volume)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dependency):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return f"Dependency({self.producer!r} -> {self.consumer!r}, volume={self.volume})"


class TaskGraph:
    """A DAG of tasks with dependencies.

    The graph enforces:

    * unique task names;
    * edges referencing declared tasks only;
    * acyclicity — checked lazily by :meth:`validate` and by
      :meth:`topological_order`, and eagerly by :meth:`add_dependency` when
      ``check_cycles=True`` is passed.
    """

    def __init__(self, name: str = "taskgraph") -> None:
        self.name = name
        self._tasks: Dict[str, Task] = {}
        self._successors: Dict[str, Dict[str, Dependency]] = {}
        self._predecessors: Dict[str, Dict[str, Dependency]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_task(self, task: Task) -> Task:
        """Add ``task`` to the graph.  Raises :class:`GraphError` on duplicates."""
        if task.name in self._tasks:
            raise GraphError(f"duplicate task name: {task.name!r}")
        self._tasks[task.name] = task
        self._successors[task.name] = {}
        self._predecessors[task.name] = {}
        return task

    def add_tasks(self, tasks: Iterable[Task]) -> None:
        for task in tasks:
            self.add_task(task)

    def replace_task(self, task: Task) -> None:
        """Replace an existing task (same name) keeping its dependencies."""
        if task.name not in self._tasks:
            raise UnknownTaskError(task.name)
        self._tasks[task.name] = task

    def add_dependency(
        self,
        producer: str,
        consumer: str,
        volume: int = 0,
        *,
        check_cycles: bool = False,
    ) -> Dependency:
        """Add a dependency edge ``producer -> consumer``.

        Adding an edge that already exists merges the volumes (the producer
        writes both payloads).  When ``check_cycles`` is true the graph is
        re-validated immediately, which is convenient in interactive use but
        quadratic when building large graphs edge by edge.
        """
        if producer not in self._tasks:
            raise UnknownTaskError(producer)
        if consumer not in self._tasks:
            raise UnknownTaskError(consumer)
        existing = self._successors[producer].get(consumer)
        if existing is not None:
            dep = Dependency(producer, consumer, existing.volume + volume)
        else:
            dep = Dependency(producer, consumer, volume)
        self._successors[producer][consumer] = dep
        self._predecessors[consumer][producer] = dep
        if check_cycles:
            self.validate()
        return dep

    def remove_dependency(self, producer: str, consumer: str) -> None:
        if producer not in self._tasks:
            raise UnknownTaskError(producer)
        if consumer not in self._tasks:
            raise UnknownTaskError(consumer)
        self._successors[producer].pop(consumer, None)
        self._predecessors[consumer].pop(producer, None)

    def remove_task(self, name: str) -> None:
        """Remove a task and every edge touching it."""
        if name not in self._tasks:
            raise UnknownTaskError(name)
        for succ in list(self._successors[name]):
            self.remove_dependency(name, succ)
        for pred in list(self._predecessors[name]):
            self.remove_dependency(pred, name)
        del self._tasks[name]
        del self._successors[name]
        del self._predecessors[name]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __contains__(self, name: object) -> bool:
        return name in self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    @property
    def task_count(self) -> int:
        return len(self._tasks)

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self._successors.values())

    def task(self, name: str) -> Task:
        try:
            return self._tasks[name]
        except KeyError:
            raise UnknownTaskError(name) from None

    def tasks(self) -> List[Task]:
        """All tasks, in insertion order."""
        return list(self._tasks.values())

    def task_names(self) -> List[str]:
        return list(self._tasks.keys())

    def dependencies(self) -> List[Dependency]:
        """All edges of the graph."""
        return [dep for succs in self._successors.values() for dep in succs.values()]

    def successors(self, name: str) -> List[str]:
        """Names of the tasks that directly depend on ``name``."""
        if name not in self._tasks:
            raise UnknownTaskError(name)
        return list(self._successors[name].keys())

    def predecessors(self, name: str) -> List[str]:
        """Names of the direct dependencies of ``name``."""
        if name not in self._tasks:
            raise UnknownTaskError(name)
        return list(self._predecessors[name].keys())

    def dependency(self, producer: str, consumer: str) -> Optional[Dependency]:
        if producer not in self._tasks:
            raise UnknownTaskError(producer)
        return self._successors[producer].get(consumer)

    def has_dependency(self, producer: str, consumer: str) -> bool:
        return self.dependency(producer, consumer) is not None

    def in_degree(self, name: str) -> int:
        return len(self._predecessors[name]) if name in self._tasks else 0

    def out_degree(self, name: str) -> int:
        return len(self._successors[name]) if name in self._tasks else 0

    def sources(self) -> List[str]:
        """Tasks without predecessors."""
        return [name for name in self._tasks if not self._predecessors[name]]

    def sinks(self) -> List[str]:
        """Tasks without successors."""
        return [name for name in self._tasks if not self._successors[name]]

    # ------------------------------------------------------------------
    # structural algorithms
    # ------------------------------------------------------------------

    def topological_order(self) -> List[str]:
        """A topological ordering of the task names (Kahn's algorithm).

        Raises :class:`CyclicDependencyError` when the graph has a cycle.
        Ties are broken by insertion order so the result is deterministic.
        """
        order = self.kahn_order()
        if len(order) != len(self._tasks):
            raise CyclicDependencyError(self._find_cycle())
        return order

    def kahn_order(self, after: Optional[Mapping[str, str]] = None) -> List[str]:
        """Tasks in the order Kahn's algorithm releases them, in O(tasks + edges).

        The edges are the dependencies plus ``task -> after[task]`` for each key
        of ``after``.  Tasks on or behind a cycle are left out; ties go by
        insertion order.
        """
        after = after or {}
        pending = {name: len(self._predecessors[name]) for name in self._tasks}
        for name in after.values():
            pending[name] += 1
        order = [name for name, count in pending.items() if not count]
        for name in order:
            successors: Iterable[str] = self._successors[name]
            if name in after:
                successors = (*successors, after[name])
            for succ in successors:
                pending[succ] -= 1
                if not pending[succ]:
                    order.append(succ)
        return order

    def validate(self) -> None:
        """Check that the dependencies are acyclic; raises on a cycle.

        The successor and predecessor maps need no cross-check: only
        :meth:`add_task`, :meth:`add_dependency`, :meth:`remove_dependency`
        and :meth:`remove_task` write them, and each keeps them in step.
        """
        self.topological_order()

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
        except CyclicDependencyError:
            return False
        return True

    def _find_cycle(self) -> List[str]:
        """Return one dependency cycle (for error messages)."""
        WHITE, GREY, BLACK = 0, 1, 2
        color = {name: WHITE for name in self._tasks}
        parent: Dict[str, Optional[str]] = {}

        for start in self._tasks:
            if color[start] != WHITE:
                continue
            stack: List[Tuple[str, Iterator[str]]] = [(start, iter(self._successors[start]))]
            color[start] = GREY
            parent[start] = None
            while stack:
                node, it = stack[-1]
                advanced = False
                for succ in it:
                    if color[succ] == WHITE:
                        color[succ] = GREY
                        parent[succ] = node
                        stack.append((succ, iter(self._successors[succ])))
                        advanced = True
                        break
                    if color[succ] == GREY:
                        # reconstruct the cycle succ -> ... -> node -> succ
                        cycle = [succ]
                        cursor: Optional[str] = node
                        while cursor is not None and cursor != succ:
                            cycle.append(cursor)
                            cursor = parent.get(cursor)
                        cycle.append(succ)
                        cycle.reverse()
                        return cycle
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return []

    def transitive_predecessors(self, name: str) -> Set[str]:
        """All (direct and indirect) dependencies of ``name``."""
        if name not in self._tasks:
            raise UnknownTaskError(name)
        seen: Set[str] = set()
        stack = list(self._predecessors[name])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._predecessors[node])
        return seen

    def transitive_successors(self, name: str) -> Set[str]:
        """All tasks that (directly or indirectly) depend on ``name``."""
        if name not in self._tasks:
            raise UnknownTaskError(name)
        seen: Set[str] = set()
        stack = list(self._successors[name])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._successors[node])
        return seen

    def subgraph(self, names: Iterable[str]) -> "TaskGraph":
        """Induced subgraph on the given task names."""
        keep = set(names)
        missing = keep - set(self._tasks)
        if missing:
            raise UnknownTaskError(sorted(missing)[0])
        sub = TaskGraph(name=f"{self.name}.subgraph")
        for name in self._tasks:
            if name in keep:
                sub.add_task(self._tasks[name])
        for dep in self.dependencies():
            if dep.producer in keep and dep.consumer in keep:
                sub.add_dependency(dep.producer, dep.consumer, dep.volume)
        return sub

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------

    @property
    def total_wcet(self) -> int:
        """Sum of isolation WCETs (a lower bound on single-core makespan)."""
        return sum(task.wcet for task in self._tasks.values())

    @property
    def total_accesses(self) -> int:
        return sum(task.demand.total for task in self._tasks.values())

    def banks_used(self) -> Set[int]:
        """Identifiers of every bank accessed by at least one task."""
        banks: Set[int] = set()
        for task in self._tasks.values():
            banks.update(task.demand.banks())
        return banks

    # ------------------------------------------------------------------
    # interoperability
    # ------------------------------------------------------------------

    def to_networkx(self):
        """Export the graph as a :class:`networkx.DiGraph` (tasks as node attributes)."""
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for task in self._tasks.values():
            graph.add_node(
                task.name,
                wcet=task.wcet,
                min_release=task.min_release,
                accesses=task.demand.to_dict(),
            )
        for dep in self.dependencies():
            graph.add_edge(dep.producer, dep.consumer, volume=dep.volume)
        return graph

    def copy(self) -> "TaskGraph":
        clone = TaskGraph(name=self.name)
        for task in self._tasks.values():
            clone.add_task(task)
        for dep in self.dependencies():
            clone.add_dependency(dep.producer, dep.consumer, dep.volume)
        return clone

    def __repr__(self) -> str:
        return f"TaskGraph({self.name!r}, tasks={len(self._tasks)}, edges={self.edge_count})"
