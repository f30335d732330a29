"""Schedule data structures: the output of the response-time analyses.

A :class:`Schedule` maps every task to a :class:`ScheduledTask` holding its
final release date, its per-bank interference and hence its worst-case
response time ``R = WCET + interference``.  The *makespan* (global WCRT of the
graph, the ``t = 7`` of Figure 1 in the paper) is the maximum finish time over
all tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from ..errors import UnknownTaskError, ValidationError

__all__ = ["ScheduledTask", "Schedule", "ScheduleStats"]


@dataclass(frozen=True)
class ScheduledTask:
    """Timing of one task in the computed static schedule."""

    name: str
    core: int
    release: int
    wcet: int
    interference_by_bank: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.release < 0:
            raise ValidationError(f"task {self.name!r}: negative release date {self.release}")
        if self.wcet <= 0:
            raise ValidationError(f"task {self.name!r}: non-positive wcet {self.wcet}")
        cleaned = {int(b): int(v) for b, v in dict(self.interference_by_bank).items() if int(v)}
        for bank, value in cleaned.items():
            if value < 0:
                raise ValidationError(
                    f"task {self.name!r}: negative interference {value} on bank {bank}"
                )
        object.__setattr__(self, "interference_by_bank", cleaned)

    @property
    def interference(self) -> int:
        """Total interference over all banks (cycles)."""
        return sum(self.interference_by_bank.values())

    @property
    def response_time(self) -> int:
        """Worst-case response time ``R = WCET + interference``."""
        return self.wcet + self.interference

    @property
    def finish(self) -> int:
        """Worst-case finish date ``release + R``."""
        return self.release + self.response_time

    @property
    def window(self) -> Tuple[int, int]:
        """Execution window ``[release, finish)``."""
        return (self.release, self.finish)

    def overlaps(self, other: "ScheduledTask") -> bool:
        """True when the two execution windows intersect (half-open intervals)."""
        return self.release < other.finish and other.release < self.finish

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "core": self.core,
            "release": self.release,
            "wcet": self.wcet,
            "interference_by_bank": {str(b): v for b, v in self.interference_by_bank.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScheduledTask":
        # hot path: every cache disk hit and every batch-sweep clone decodes
        # one of these per task.  Bypassing the frozen-dataclass __init__
        # (object.__setattr__ per field) roughly halves the cost; the
        # __post_init__ invariants are re-checked explicitly below.
        name = str(data["name"])
        release = int(data["release"])
        wcet = int(data["wcet"])
        if release < 0:
            raise ValidationError(f"task {name!r}: negative release date {release}")
        if wcet <= 0:
            raise ValidationError(f"task {name!r}: non-positive wcet {wcet}")
        cleaned = {}
        for bank, value in data.get("interference_by_bank", {}).items():
            value = int(value)
            if value < 0:
                raise ValidationError(
                    f"task {name!r}: negative interference {value} on bank {bank}"
                )
            if value:
                cleaned[int(bank)] = value
        task = object.__new__(cls)
        set_field = object.__setattr__
        set_field(task, "name", name)
        set_field(task, "core", int(data["core"]))
        set_field(task, "release", release)
        set_field(task, "wcet", wcet)
        set_field(task, "interference_by_bank", cleaned)
        return task


@dataclass
class ScheduleStats:
    """Bookkeeping about how the analysis ran (useful for benchmarks and reports)."""

    algorithm: str = ""
    cursor_steps: int = 0
    outer_iterations: int = 0
    inner_iterations: int = 0
    ibus_calls: int = 0
    wall_time_seconds: float = 0.0
    #: problem-kernel compilations performed by this analysis run: 1 when the
    #: analyzer was handed a plain problem and compiled it, 0 when it reused a
    #: precompiled kernel (the delta re-analysis path)
    kernel_compilations: int = 0
    #: 1 when the analyzer reused a parent solution through a structural
    #: warm start (prefix replay / seeded sweep), 0 for a cold run
    warm_start_hits: int = 0
    #: which analysis backend produced the result: "python" for the reference
    #: loops, "vector" for the NumPy core (empty when the analyzer predates
    #: backend selection or the field was absent from a serialized schedule)
    backend: str = ""
    #: batched Jacobi sweeps executed by the vector backend (0 on the python path)
    vector_sweeps: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)


class Schedule:
    """Result of a response-time analysis.

    ``schedulable`` is False when the analysis proved the task set cannot meet
    its horizon (or deadlocked); in that case ``unscheduled`` lists the tasks
    that never received a release date and the scheduled entries cover only a
    prefix of the graph.
    """

    def __init__(
        self,
        entries: Iterable[ScheduledTask],
        *,
        algorithm: str,
        schedulable: bool = True,
        unscheduled: Optional[Iterable[str]] = None,
        stats: Optional[ScheduleStats] = None,
        problem_name: str = "",
    ) -> None:
        self._entries: Dict[str, ScheduledTask] = {}
        for entry in entries:
            if entry.name in self._entries:
                raise ValidationError(f"duplicate schedule entry for task {entry.name!r}")
            self._entries[entry.name] = entry
        self.algorithm = algorithm
        self.schedulable = bool(schedulable)
        self.unscheduled: List[str] = sorted(unscheduled or [])
        self.stats = stats or ScheduleStats(algorithm=algorithm)
        self.problem_name = problem_name

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ScheduledTask]:
        return iter(self._entries.values())

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def entry(self, name: str) -> ScheduledTask:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownTaskError(name) from None

    def entries(self) -> List[ScheduledTask]:
        return list(self._entries.values())

    def task_names(self) -> List[str]:
        return list(self._entries.keys())

    def release(self, name: str) -> int:
        return self.entry(name).release

    def response_time(self, name: str) -> int:
        return self.entry(name).response_time

    def interference(self, name: str) -> int:
        return self.entry(name).interference

    def finish(self, name: str) -> int:
        return self.entry(name).finish

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------

    @property
    def makespan(self) -> int:
        """Global worst-case response time of the graph (0 for an empty schedule)."""
        return max((entry.finish for entry in self._entries.values()), default=0)

    @property
    def total_interference(self) -> int:
        return sum(entry.interference for entry in self._entries.values())

    @property
    def total_wcet(self) -> int:
        return sum(entry.wcet for entry in self._entries.values())

    def interference_ratio(self) -> float:
        """Total interference relative to total isolation WCET (0.0 when no work)."""
        total = self.total_wcet
        return (self.total_interference / total) if total else 0.0

    def by_core(self) -> Dict[int, List[ScheduledTask]]:
        """Entries grouped by core, sorted by release date then name."""
        result: Dict[int, List[ScheduledTask]] = {}
        for entry in self._entries.values():
            result.setdefault(entry.core, []).append(entry)
        for entries in result.values():
            entries.sort(key=lambda e: (e.release, e.name))
        return result

    def core_utilization(self, horizon: Optional[int] = None) -> Dict[int, float]:
        """Fraction of the makespan (or ``horizon``) each core spends executing."""
        span = horizon if horizon is not None else self.makespan
        if span <= 0:
            return {core: 0.0 for core in self.by_core()}
        return {
            core: sum(e.response_time for e in entries) / span
            for core, entries in self.by_core().items()
        }

    def relabeled(self, problem_name: str) -> "Schedule":
        """Copy of this schedule for ``problem_name``.

        The frozen :class:`ScheduledTask` entries are shared (nothing outside
        the constructor writes a schedule's entries); ``stats`` and
        ``unscheduled`` are the copy's own, so a caller may mutate them.
        """
        clone = object.__new__(type(self))
        clone._entries = self._entries
        clone.algorithm = self.algorithm
        clone.schedulable = self.schedulable
        clone.unscheduled = list(self.unscheduled)
        clone.stats = replace(self.stats)
        clone.problem_name = problem_name
        return clone

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "schedulable": self.schedulable,
            "problem_name": self.problem_name,
            "unscheduled": list(self.unscheduled),
            "makespan": self.makespan,
            "entries": [entry.to_dict() for entry in self._entries.values()],
            "stats": self.stats.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Schedule":
        stats_data = dict(data.get("stats", {}))
        stats = ScheduleStats(
            algorithm=str(stats_data.get("algorithm", data.get("algorithm", ""))),
            cursor_steps=int(stats_data.get("cursor_steps", 0)),
            outer_iterations=int(stats_data.get("outer_iterations", 0)),
            inner_iterations=int(stats_data.get("inner_iterations", 0)),
            ibus_calls=int(stats_data.get("ibus_calls", 0)),
            wall_time_seconds=float(stats_data.get("wall_time_seconds", 0.0)),
            kernel_compilations=int(stats_data.get("kernel_compilations", 0)),
            warm_start_hits=int(stats_data.get("warm_start_hits", 0)),
            backend=str(stats_data.get("backend", "")),
            vector_sweeps=int(stats_data.get("vector_sweeps", 0)),
        )
        return cls(
            entries=[ScheduledTask.from_dict(record) for record in data.get("entries", [])],
            algorithm=str(data.get("algorithm", "")),
            schedulable=bool(data.get("schedulable", True)),
            unscheduled=[str(name) for name in data.get("unscheduled", [])],
            stats=stats,
            problem_name=str(data.get("problem_name", "")),
        )

    def __repr__(self) -> str:
        status = "schedulable" if self.schedulable else "UNSCHEDULABLE"
        return (
            f"Schedule(algorithm={self.algorithm!r}, tasks={len(self._entries)}, "
            f"makespan={self.makespan}, {status})"
        )
