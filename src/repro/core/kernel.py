"""Compiled problem kernel: integer-indexed analysis structure + delta probes.

The design-space workloads of :mod:`repro.analysis` (sensitivity bracketing,
horizon minimisation, bench sweeps) analyse hundreds of *perturbed variants of
one problem*: same graph, same mapping, same platform, same arbiter — only the
WCET vector, the memory-demand vector or the horizon change between probes.
Before this module existed, every probe re-derived all static structure from
scratch: string-keyed predecessor maps, topological orders, per-core queues.

A :class:`CompiledProblem` derives that structure **once**:

* dense task-id arrays for WCET, memory demand, minimal release date and core
  assignment (task ids follow the graph's insertion order, so they round-trip
  the JSON wire format);
* CSR-style adjacency for the *effective* dependency relation — graph edges
  plus the implicit same-core "mapping edges" (see
  :meth:`~repro.core.problem.AnalysisProblem.effective_predecessors`) — in
  both directions (predecessors and dependents);
* the effective topological order (with the same tie-breaking the fixed-point
  baseline used, so iteration orders — and therefore results — are preserved);
* per-core execution orders as index arrays;
* the bank table: which banks exist, which are reserved, which tasks access
  each shared bank.

A :class:`ParamOverlay` is a cheap delta against that structure: a replacement
WCET vector, a replacement demand vector and/or an alternate horizon; a
:class:`StructureOverlay` is a single structural edit.  Either way the probe is
an :class:`OverlayProblem`: a parent kernel, one delta and an optional warm
start (:class:`PatchedProblem` builds the structural kind); both analyzers
(:class:`~repro.core.incremental.IncrementalAnalyzer`,
:class:`~repro.core.fixedpoint.FixedPointAnalyzer`) run on it natively —
no graph copy, no re-validation, no re-walk of the adjacency.  Algorithms that
are not kernel-aware receive :meth:`OverlayProblem.materialize`, a real
:class:`~repro.core.problem.AnalysisProblem`, so plug-ins keep working.

Kernel compilations are counted process-wide (:func:`compilation_count`) and
per-schedule (:attr:`~repro.core.schedule.ScheduleStats.kernel_compilations`),
which is how the tests prove a warm sensitivity search compiles its base
problem exactly once.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..errors import AnalysisError, MappingError, ModelError, PlatformError
from ..model import MemoryDemand, Task
from .problem import AnalysisProblem
from .schedule import Schedule

__all__ = [
    "KEEP_HORIZON",
    "CompiledProblem",
    "ParamOverlay",
    "OverlayProblem",
    "PatchedProblem",
    "StructureOverlay",
    "WarmStart",
    "compile_problem",
    "compilation_count",
    "compute_warm_start",
    "patch_count",
    "patch_problem",
    "structural_dirty_names",
]


class _KeepHorizon:
    """Sentinel: the overlay keeps the kernel's own horizon (None is a real value)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "KEEP_HORIZON"


#: pass as ``ParamOverlay(horizon=...)`` default — "do not touch the horizon"
KEEP_HORIZON = _KeepHorizon()

_COMPILATION_LOCK = threading.Lock()
_COMPILATIONS = 0


def compilation_count() -> int:
    """Process-wide number of :class:`CompiledProblem` constructions so far.

    The observability hook behind the "compile the base problem exactly once"
    acceptance check: snapshot it, run a warm search, assert the delta.
    """
    return _COMPILATIONS


def _count_compilation() -> None:
    global _COMPILATIONS
    with _COMPILATION_LOCK:
        _COMPILATIONS += 1


class CompiledProblem:
    """Immutable integer-indexed compilation of an :class:`AnalysisProblem`.

    Task ids are the graph's insertion order (index ``i`` ↔ ``names[i]``).
    The adjacency arrays describe the *effective* dependency relation:
    ``pred_list[pred_offsets[i]:pred_offsets[i+1]]`` are the ids task ``i``
    waits for (graph predecessors plus the task just before ``i`` on its own
    core), ``dep_list``/``dep_offsets`` the reverse relation.

    The compiled structure is shared freely across overlays and threads; it is
    never mutated after construction (the lazily cached digest pair is
    write-once).  Compile through :func:`compile_problem` (or
    :meth:`CompiledProblem.compile`) so the process-wide compilation counter
    stays accurate.
    """

    __slots__ = (
        "problem",
        "names",
        "index_of",
        "wcet",
        "demand",
        "min_release",
        "core_of",
        "pred_offsets",
        "pred_list",
        "dep_offsets",
        "dep_list",
        "topo_order",
        "cyclic_tasks",
        "core_ids",
        "core_orders",
        "bank_ids",
        "reserved_banks",
        "bank_tasks",
        "sorted_order",
        "_digests",
        "_vector_state",
    )

    def __init__(self, problem: AnalysisProblem) -> None:
        self.problem = problem
        graph = problem.graph
        mapping = problem.mapping

        names: List[str] = []
        wcet: List[int] = []
        demand: List[MemoryDemand] = []
        min_release: List[int] = []
        for task in graph:
            names.append(task.name)
            wcet.append(task.wcet)
            demand.append(task.demand)
            min_release.append(task.min_release)
        self.names: Tuple[str, ...] = tuple(names)
        self.index_of: Dict[str, int] = {name: i for i, name in enumerate(names)}
        self.wcet: Tuple[int, ...] = tuple(wcet)
        self.demand: Tuple[MemoryDemand, ...] = tuple(demand)
        self.min_release: Tuple[int, ...] = tuple(min_release)
        self.core_of: Tuple[int, ...] = tuple(mapping.core_of(name) for name in names)

        n = len(names)
        index_of = self.index_of
        orders = dict(mapping.items())
        core_pred_of = mapping.core_predecessors()
        # effective predecessors: graph edges + the implicit same-core edge,
        # deduplicated (the core predecessor may also be a graph predecessor)
        preds: List[List[int]] = []
        for name in names:
            merged = [index_of[pred] for pred in graph.predecessors(name)]
            core_pred = core_pred_of.get(name)
            if core_pred is not None:
                core_idx = index_of[core_pred]
                if core_idx not in merged:
                    merged.append(core_idx)
            preds.append(merged)
        deps: List[List[int]] = [[] for _ in range(n)]
        for consumer, merged in enumerate(preds):
            for producer in merged:
                deps[producer].append(consumer)
        self.pred_offsets, self.pred_list = _csr(preds)
        self.dep_offsets, self.dep_list = _csr(deps)

        # effective topological order, Kahn's algorithm with the historical
        # tie-breaking (ready list seeded in insertion order, consumers
        # appended as they unlock); a contradiction between the per-core
        # orders and the dependencies leaves the order partial and the
        # offending tasks in ``cyclic_tasks``
        in_degree = [len(merged) for merged in preds]
        ready = [i for i in range(n) if in_degree[i] == 0]
        head = 0
        while head < len(ready):
            node = ready[head]
            head += 1
            for consumer in deps[node]:
                in_degree[consumer] -= 1
                if in_degree[consumer] == 0:
                    ready.append(consumer)
        self.topo_order: Tuple[int, ...] = tuple(ready)
        if len(ready) != n:
            ordered = set(ready)
            self.cyclic_tasks: Tuple[str, ...] = tuple(
                sorted(name for i, name in enumerate(names) if i not in ordered)
            )
        else:
            self.cyclic_tasks = ()

        self.core_ids: Tuple[int, ...] = tuple(orders)  # items() runs in core order
        self.core_orders: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(index_of[name] for name in order) for order in orders.values()
        )

        platform = problem.platform
        self.bank_ids: Tuple[int, ...] = tuple(platform.bank_ids())
        self.reserved_banks: frozenset = frozenset(
            bank.identifier
            for bank in platform.banks()
            if bank.reserved_for is not None
        )
        #: per shared bank: ids of the tasks with non-zero demand on it (the
        #: fixed-point sweep prunes its interference calls with this table)
        bank_tasks: Dict[int, List[int]] = {}
        for i, task_demand in enumerate(self.demand):
            for bank_id in task_demand.banks():
                if bank_id not in self.reserved_banks:
                    bank_tasks.setdefault(bank_id, []).append(i)
        self.bank_tasks: Dict[int, Tuple[int, ...]] = {
            bank: tuple(ids) for bank, ids in bank_tasks.items()
        }

        #: task ids sorted by name — the order the canonical digest renders
        #: parameter vectors in (see repro.engine.jobs.split_problem_digests)
        self.sorted_order: Tuple[int, ...] = tuple(
            sorted(range(n), key=names.__getitem__)
        )
        #: write-once (structure, parameters, parent key) digests of
        #: ``problem``, filled in by repro.engine.jobs on first use
        self._digests: Optional[Tuple[str, str, str]] = None
        #: write-once cache of the NumPy arrays repro.core.vector derives from
        #: this kernel (None until the vector backend first analyses it)
        self._vector_state: Optional[Any] = None

    # ------------------------------------------------------------------

    @classmethod
    def compile(cls, problem: AnalysisProblem) -> "CompiledProblem":
        """Compile ``problem`` (counts toward :func:`compilation_count`)."""
        return compile_problem(problem)

    @property
    def task_count(self) -> int:
        return len(self.names)

    @property
    def horizon(self) -> Optional[int]:
        return self.problem.horizon

    def predecessors_of(self, index: int) -> Tuple[int, ...]:
        """Effective predecessor ids of task ``index`` (CSR slice)."""
        return tuple(self.pred_list[self.pred_offsets[index] : self.pred_offsets[index + 1]])

    def dependents_of(self, index: int) -> Tuple[int, ...]:
        """Effective dependent ids of task ``index`` (CSR slice)."""
        return tuple(self.dep_list[self.dep_offsets[index] : self.dep_offsets[index + 1]])

    # ------------------------------------------------------------------
    # overlay factories
    # ------------------------------------------------------------------

    def with_overlay(
        self, overlay: "ParamOverlay", *, name: Optional[str] = None
    ) -> "OverlayProblem":
        """Bind ``overlay`` to this kernel as an analyzable probe."""
        return OverlayProblem(self, overlay, name=name)

    def scaled_wcet_overlay(self, factor: float) -> "ParamOverlay":
        """Overlay with every WCET scaled by ``factor`` (min 1 cycle).

        The rounding is exactly :func:`repro.analysis.sensitivity.scale_wcets`'s,
        so an overlay probe digests — and analyses — identically to the
        materialized scaled problem.
        """
        if factor <= 0:
            raise AnalysisError("scaling factor must be positive")
        return ParamOverlay(
            wcet=tuple(max(int(round(value * factor)), 1) for value in self.wcet)
        )

    def scaled_demand_overlay(self, factor: float) -> "ParamOverlay":
        """Overlay with every per-bank demand scaled by ``factor``.

        Mirrors :func:`repro.analysis.sensitivity.scale_memory_demand`,
        including the clamp that keeps a non-zero demand from rounding down to
        zero (which would silently drop the task from arbitration).
        """
        if factor < 0:
            raise AnalysisError("scaling factor must be non-negative")
        scaled: List[MemoryDemand] = []
        for task_demand in self.demand:
            counts: Dict[int, int] = {}
            for bank, count in task_demand.items():
                scaled_count = int(round(count * factor))
                if count > 0 and factor > 0:
                    scaled_count = max(scaled_count, 1)
                counts[bank] = scaled_count
            scaled.append(MemoryDemand(counts))
        return ParamOverlay(demand=tuple(scaled))

    def patched(
        self,
        delta: "StructureOverlay",
        *,
        name: Optional[str] = None,
        parent_schedule: Optional[Schedule] = None,
    ) -> "PatchedProblem":
        """Bind a structural ``delta`` to this kernel as an analyzable probe.

        Pass ``parent_schedule`` (this kernel's own solution under the same
        algorithm) to let the analyzers warm-start from it; see
        :class:`PatchedProblem`.
        """
        return PatchedProblem(self, delta, name=name, parent_schedule=parent_schedule)


def _csr(rows: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Pack a list-of-lists adjacency into (offsets, flat values)."""
    offsets = [0]
    values: List[int] = []
    for row in rows:
        values.extend(row)
        offsets.append(len(values))
    return tuple(offsets), tuple(values)


def compile_problem(problem: AnalysisProblem) -> "CompiledProblem":
    """Compile ``problem`` into a :class:`CompiledProblem` (one structure walk).

    Compilation is O(tasks + edges); it performs no validation (problems are
    validated at construction) and no analysis.  Every call counts toward
    :func:`compilation_count` — reuse the returned kernel across parameter
    variants instead of recompiling per probe.
    """
    with obs.span(
        "kernel.compile", problem=problem.name, tasks=problem.task_count
    ):
        kernel = CompiledProblem(problem)
    _count_compilation()
    return kernel


class ParamOverlay:
    """Immutable parameter delta against a :class:`CompiledProblem`.

    ``wcet`` and ``demand`` are full replacement vectors in task-id order
    (``None`` keeps the kernel's own vector); ``horizon`` replaces the global
    deadline — pass :data:`KEEP_HORIZON` (the default) to keep the kernel's,
    ``None`` to analyse unconstrained.  Overlays are value objects: equal
    content hashes and compares equal, which keeps them usable as dict keys.
    """

    __slots__ = ("wcet", "demand", "horizon")

    def __init__(
        self,
        *,
        wcet: Optional[Sequence[int]] = None,
        demand: Optional[Sequence[MemoryDemand]] = None,
        horizon: object = KEEP_HORIZON,
    ) -> None:
        object.__setattr__(self, "wcet", None if wcet is None else tuple(int(v) for v in wcet))
        object.__setattr__(
            self, "demand", None if demand is None else tuple(demand)
        )
        if horizon is not KEEP_HORIZON and horizon is not None:
            horizon = int(horizon)
            if horizon <= 0:
                raise ModelError(f"horizon must be positive when given, got {horizon}")
        object.__setattr__(self, "horizon", horizon)
        if self.wcet is not None and any(value <= 0 for value in self.wcet):
            raise ModelError("overlay wcet vector must be strictly positive")
        if self.demand is not None and not all(
            isinstance(entry, MemoryDemand) for entry in self.demand
        ):
            raise ModelError("overlay demand vector must hold MemoryDemand values")

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("ParamOverlay is immutable")

    @property
    def keeps_horizon(self) -> bool:
        return self.horizon is KEEP_HORIZON

    def is_identity(self) -> bool:
        """True when the overlay changes nothing (pure structural reuse)."""
        return self.wcet is None and self.demand is None and self.keeps_horizon

    def _key(self) -> Tuple:
        horizon = "keep" if self.keeps_horizon else ("none", self.horizon)
        return (self.wcet, self.demand, horizon)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParamOverlay):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        if self.wcet is not None:
            parts.append(f"wcet[{len(self.wcet)}]")
        if self.demand is not None:
            parts.append(f"demand[{len(self.demand)}]")
        if not self.keeps_horizon:
            parts.append(f"horizon={self.horizon}")
        return f"ParamOverlay({', '.join(parts) or 'identity'})"


class OverlayProblem:
    """A probe: a parent kernel plus one delta, analyzable like a problem.

    Every probe carries the same three parts, whatever its delta:

    * ``parent`` — the compiled kernel the delta applies to;
    * ``delta`` — ``None`` for a parameter probe (the delta is ``overlay``),
      or the :class:`StructureOverlay` edit of a :class:`PatchedProblem`;
    * ``warm`` — an optional :class:`WarmStart` from the parent's solution
      (only structural probes carry one).

    ``kernel`` is the kernel the analyzers run on: the parent itself for a
    parameter probe, the patched child for a structural one.  The
    kernel-aware analyzers run the probe directly on the index arrays (no
    graph copy, no validation, no structure walk); everything else —
    non-kernel-aware plug-in algorithms, the JSON problem format — goes
    through :meth:`materialize`, which builds (and caches) an equivalent
    :class:`AnalysisProblem`.  The overlay vectors must match the kernel's
    task count.

    ``name`` labels the probe (defaults to the base problem's name); like
    problem names everywhere in the engine it is a label, not content — it
    does not participate in digests.
    """

    __slots__ = ("kernel", "overlay", "name", "parent", "delta", "warm", "_materialized")

    def __init__(
        self,
        kernel: CompiledProblem,
        overlay: ParamOverlay,
        *,
        name: Optional[str] = None,
    ) -> None:
        n = kernel.task_count
        if overlay.wcet is not None and len(overlay.wcet) != n:
            raise ModelError(
                f"overlay wcet vector has {len(overlay.wcet)} entries for {n} task(s)"
            )
        if overlay.demand is not None and len(overlay.demand) != n:
            raise ModelError(
                f"overlay demand vector has {len(overlay.demand)} entries for {n} task(s)"
            )
        self.kernel = kernel
        self.overlay = overlay
        self.name = name if name is not None else kernel.problem.name
        self.parent = kernel
        self.delta: Optional[StructureOverlay] = None
        self.warm: Optional[WarmStart] = None
        self._materialized: Optional[AnalysisProblem] = None

    # -- problem-like surface -------------------------------------------

    @property
    def task_count(self) -> int:
        return self.kernel.task_count

    @property
    def horizon(self) -> Optional[int]:
        if self.overlay.keeps_horizon:
            return self.kernel.horizon
        return self.overlay.horizon  # type: ignore[return-value]

    @property
    def arbiter(self):
        return self.kernel.problem.arbiter

    @property
    def platform(self):
        return self.kernel.problem.platform

    @property
    def mapping(self):
        return self.kernel.problem.mapping

    @property
    def graph(self):
        """Task graph with the overlay applied (materializes on first access)."""
        return self.materialize().graph

    # -- resolved parameter vectors -------------------------------------

    def wcet_vector(self) -> Tuple[int, ...]:
        return self.overlay.wcet if self.overlay.wcet is not None else self.kernel.wcet

    def demand_vector(self) -> Tuple[MemoryDemand, ...]:
        return (
            self.overlay.demand if self.overlay.demand is not None else self.kernel.demand
        )

    # -- fallback --------------------------------------------------------

    def materialize(self) -> AnalysisProblem:
        """Equivalent plain :class:`AnalysisProblem` (built once, then cached).

        The rebuilt problem copies the graph with the overlay's wcet/demand
        vectors applied and carries the overlay's horizon and this probe's
        name; validation is skipped (the structure was validated when the
        base problem was built, and overlays cannot change it).
        """
        if self._materialized is None:
            base = self.kernel.problem
            wcet = self.wcet_vector()
            demand = self.demand_vector()
            graph = base.graph
            if self.overlay.wcet is not None or self.overlay.demand is not None:
                graph = graph.copy()
                for index, name in enumerate(self.kernel.names):
                    task = graph.task(name)
                    if task.wcet != wcet[index] or task.demand != demand[index]:
                        graph.replace_task(
                            task.with_wcet(wcet[index]).with_demand(demand[index])
                        )
            self._materialized = AnalysisProblem(
                graph=graph,
                mapping=base.mapping,
                platform=base.platform,
                arbiter=base.arbiter,
                horizon=self.horizon,
                name=self.name,
                validate=False,
            )
        return self._materialized

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OverlayProblem({self.name!r}, tasks={self.task_count}, "
            f"overlay={self.overlay!r})"
        )


# ---------------------------------------------------------------------------
# structural overlays: single-edit deltas against a compiled parent
# ---------------------------------------------------------------------------

_PATCHES = 0


def patch_count() -> int:
    """Process-wide number of :func:`patch_problem` kernel patches so far.

    Patches are counted separately from :func:`compilation_count`: a patched
    kernel reuses the parent's problem pieces and shares every untouched
    table, so the "compile the base exactly once" acceptance checks stay
    meaningful while structural probes remain observable.
    """
    return _PATCHES


def _count_patch() -> None:
    global _PATCHES
    with _COMPILATION_LOCK:
        _PATCHES += 1


#: the identity parameter overlay every structural probe carries
_IDENTITY_OVERLAY = ParamOverlay()

_STRUCTURE_KINDS = (
    "noop",
    "add_task",
    "remove_task",
    "add_edge",
    "remove_edge",
    "remap_task",
)


class StructureOverlay:
    """Immutable *single-edit* structural delta against a compiled problem.

    Exactly one of six edits (use the classmethod factories):

    * ``noop`` — no change (the warm-start fast path reuses the parent
      schedule outright);
    * ``add_task`` — a new task mapped onto a core (no edges; chain further
      deltas to wire it up);
    * ``remove_task`` — drop a task and every edge touching it;
    * ``add_edge`` / ``remove_edge`` — one dependency edge;
    * ``remap_task`` — move a task to another core (or another position,
      possibly on the same core).

    Overlays are value objects (hashable, comparable) so they key caches and
    wire payloads.  :meth:`apply` produces the edited
    :class:`~repro.core.problem.AnalysisProblem`; :func:`patch_problem`
    compiles it while sharing untouched tables with the parent kernel.
    """

    __slots__ = (
        "kind",
        "task",
        "wcet",
        "demand",
        "min_release",
        "deadline",
        "producer",
        "consumer",
        "volume",
        "core",
        "position",
    )

    def __init__(
        self,
        kind: str,
        *,
        task: Optional[str] = None,
        wcet: Optional[int] = None,
        demand: Optional[MemoryDemand] = None,
        min_release: int = 0,
        deadline: Optional[int] = None,
        producer: Optional[str] = None,
        consumer: Optional[str] = None,
        volume: int = 0,
        core: Optional[int] = None,
        position: Optional[int] = None,
    ) -> None:
        if kind not in _STRUCTURE_KINDS:
            raise ModelError(
                f"unknown structural delta kind {kind!r}; "
                f"expected one of {', '.join(_STRUCTURE_KINDS)}"
            )
        set_ = object.__setattr__
        set_(self, "kind", kind)
        set_(self, "task", task)
        set_(self, "wcet", None if wcet is None else int(wcet))
        if demand is not None and not isinstance(demand, MemoryDemand):
            try:
                demand = MemoryDemand(dict(demand))
            except (TypeError, ValueError) as exc:
                raise ModelError(
                    "add_task delta demand must be a MemoryDemand or a bank -> accesses mapping"
                ) from exc
        set_(self, "demand", demand)
        set_(self, "min_release", int(min_release))
        set_(self, "deadline", None if deadline is None else int(deadline))
        set_(self, "producer", producer)
        set_(self, "consumer", consumer)
        set_(self, "volume", int(volume))
        set_(self, "core", None if core is None else int(core))
        set_(self, "position", None if position is None else int(position))
        self._validate()

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("StructureOverlay is immutable")

    def _validate(self) -> None:
        kind = self.kind
        if kind in ("add_task", "remove_task", "remap_task"):
            if not self.task or not isinstance(self.task, str):
                raise ModelError(f"{kind} delta requires a task name")
        if kind in ("add_edge", "remove_edge"):
            if not self.producer or not self.consumer:
                raise ModelError(f"{kind} delta requires producer and consumer names")
            if self.producer == self.consumer:
                raise ModelError(f"{kind} delta: self dependency on {self.producer!r}")
        if kind == "add_task":
            if self.wcet is None or self.wcet <= 0:
                raise ModelError("add_task delta requires a positive wcet")
            if self.core is None:
                raise ModelError("add_task delta requires a core")
            if self.demand is not None and not isinstance(self.demand, MemoryDemand):
                raise ModelError("add_task delta demand must be a MemoryDemand")
            if self.min_release < 0:
                raise ModelError("add_task delta min_release must be non-negative")
            if self.deadline is not None and self.deadline <= 0:
                raise ModelError("add_task delta deadline must be positive when given")
        if kind == "remap_task" and self.core is None:
            raise ModelError("remap_task delta requires a core")
        if kind == "add_edge" and self.volume < 0:
            raise ModelError("add_edge delta volume must be non-negative")
        if self.core is not None and self.core < 0:
            raise ModelError(f"core identifier must be non-negative, got {self.core}")

    # -- factories -------------------------------------------------------

    @classmethod
    def noop(cls) -> "StructureOverlay":
        """The empty edit (warm analysis reuses the parent schedule as is)."""
        return cls("noop")

    @classmethod
    def add_task(
        cls,
        name: str,
        *,
        wcet: int,
        core: int,
        demand: Optional[MemoryDemand] = None,
        min_release: int = 0,
        deadline: Optional[int] = None,
        position: Optional[int] = None,
    ) -> "StructureOverlay":
        """Add task ``name`` mapped to ``core`` (appended, or at ``position``)."""
        return cls(
            "add_task",
            task=name,
            wcet=wcet,
            core=core,
            demand=demand,
            min_release=min_release,
            deadline=deadline,
            position=position,
        )

    @classmethod
    def remove_task(cls, name: str) -> "StructureOverlay":
        """Remove task ``name`` and every dependency edge touching it."""
        return cls("remove_task", task=name)

    @classmethod
    def add_edge(cls, producer: str, consumer: str, volume: int = 0) -> "StructureOverlay":
        """Add the dependency edge ``producer -> consumer``."""
        return cls("add_edge", producer=producer, consumer=consumer, volume=volume)

    @classmethod
    def remove_edge(cls, producer: str, consumer: str) -> "StructureOverlay":
        """Remove the dependency edge ``producer -> consumer``."""
        return cls("remove_edge", producer=producer, consumer=consumer)

    @classmethod
    def remap_task(
        cls, name: str, core: int, position: Optional[int] = None
    ) -> "StructureOverlay":
        """Move task ``name`` to ``core`` (appended, or inserted at ``position``)."""
        return cls("remap_task", task=name, core=core, position=position)

    # -- predicates ------------------------------------------------------

    def is_noop(self) -> bool:
        return self.kind == "noop"

    # -- application -----------------------------------------------------

    def apply(
        self, problem: AnalysisProblem, *, name: Optional[str] = None
    ) -> AnalysisProblem:
        """Edited copy of ``problem`` (the original is never mutated).

        Graph and mapping are copied only when the edit touches them.  The
        result skips full re-validation (single edits cannot invalidate the
        untouched structure) but the edit itself is checked: unknown tasks,
        duplicate names, missing edges, unknown cores and reserved-bank
        violations all raise the same error types problem validation would.
        """
        kind = self.kind
        if kind == "noop":
            if name is None or name == problem.name:
                return problem
            return AnalysisProblem(
                graph=problem.graph,
                mapping=problem.mapping,
                platform=problem.platform,
                arbiter=problem.arbiter,
                horizon=problem.horizon,
                name=name,
                validate=False,
            )
        graph = problem.graph
        mapping = problem.mapping
        platform = problem.platform
        if kind == "add_task":
            demand = self.demand if self.demand is not None else MemoryDemand.empty()
            self._check_platform(problem, self.task, self.core, demand)
            graph = graph.copy()
            graph.add_task(
                Task(
                    self.task,
                    self.wcet,
                    demand,
                    min_release=self.min_release,
                    deadline=self.deadline,
                )
            )
            mapping = mapping.copy()
            mapping.assign(self.task, self.core, self.position)
        elif kind == "remove_task":
            graph.task(self.task)  # raises UnknownTaskError for missing tasks
            graph = graph.copy()
            graph.remove_task(self.task)
            mapping = mapping.copy()
            mapping.unassign(self.task)
        elif kind == "add_edge":
            if graph.has_dependency(self.producer, self.consumer):
                raise ModelError(
                    f"dependency {self.producer!r} -> {self.consumer!r} already exists"
                )
            graph = graph.copy()
            graph.add_dependency(self.producer, self.consumer, self.volume)
        elif kind == "remove_edge":
            if not graph.has_dependency(self.producer, self.consumer):
                raise ModelError(
                    f"dependency {self.producer!r} -> {self.consumer!r} does not exist"
                )
            graph = graph.copy()
            graph.remove_dependency(self.producer, self.consumer)
        elif kind == "remap_task":
            task = graph.task(self.task)
            self._check_platform(problem, self.task, self.core, task.demand)
            mapping = mapping.copy()
            mapping.unassign(self.task)
            mapping.assign(self.task, self.core, self.position)
        return AnalysisProblem(
            graph=graph,
            mapping=mapping,
            platform=platform,
            arbiter=problem.arbiter,
            horizon=problem.horizon,
            name=name if name is not None else problem.name,
            validate=False,
        )

    @staticmethod
    def _check_platform(
        problem: AnalysisProblem, task: str, core: int, demand: MemoryDemand
    ) -> None:
        platform = problem.platform
        if not platform.has_core(core):
            raise PlatformError(
                f"delta maps task {task!r} to core {core} which does not exist "
                f"on platform {platform.name!r}"
            )
        for bank in demand.banks():
            if not platform.has_bank(bank):
                raise PlatformError(
                    f"task {task!r} accesses bank {bank} which does not exist "
                    f"on platform {platform.name!r}"
                )
            reserved = platform.bank(bank).reserved_for
            if reserved is not None and core != reserved:
                raise MappingError(
                    f"task {task!r} (core {core}) accesses bank {bank} "
                    f"reserved for core {reserved}"
                )

    # -- value semantics -------------------------------------------------

    def _key(self) -> Tuple:
        return (
            self.kind,
            self.task,
            self.wcet,
            self.demand,
            self.min_release,
            self.deadline,
            self.producer,
            self.consumer,
            self.volume,
            self.core,
            self.position,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StructureOverlay):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind == "noop":
            return "StructureOverlay(noop)"
        if self.kind in ("add_edge", "remove_edge"):
            return f"StructureOverlay({self.kind} {self.producer!r}->{self.consumer!r})"
        if self.kind in ("remap_task", "add_task"):
            return f"StructureOverlay({self.kind} {self.task!r} core={self.core})"
        return f"StructureOverlay({self.kind} {self.task!r})"


#: kernel tables a patched child may share with its parent when unchanged
_SHAREABLE_SLOTS = (
    "names",
    "index_of",
    "wcet",
    "demand",
    "min_release",
    "core_of",
    "pred_offsets",
    "pred_list",
    "dep_offsets",
    "dep_list",
    "topo_order",
    "cyclic_tasks",
    "core_ids",
    "core_orders",
    "bank_ids",
    "reserved_banks",
    "bank_tasks",
    "sorted_order",
)


def patch_problem(
    parent: CompiledProblem,
    delta: StructureOverlay,
    *,
    name: Optional[str] = None,
) -> CompiledProblem:
    """Compile ``delta`` against ``parent`` into a patched kernel.

    The child rebuilds only what the single edit can change and then interns
    every table that came out equal back to the parent's object, so untouched
    CSR rows, index maps and per-core orders are shared (``child.wcet is
    parent.wcet`` etc.).  Patches count toward :func:`patch_count`, **not**
    :func:`compilation_count` — a structural probe generation leaves the
    compile counter where the base compile put it.

    A ``noop`` delta returns ``parent`` itself.  A delta that introduces a
    dependency/ordering cycle raises :class:`~repro.errors.ModelError`.
    """
    if delta.is_noop():
        return parent
    edited = delta.apply(parent.problem, name=name)
    with obs.span(
        "kernel.patch", problem=edited.name, kind=delta.kind, tasks=edited.task_count
    ):
        child = CompiledProblem(edited)
        for slot in _SHAREABLE_SLOTS:
            mine = getattr(child, slot)
            theirs = getattr(parent, slot)
            if mine is not theirs and mine == theirs:
                setattr(child, slot, theirs)
    if child.cyclic_tasks and not parent.cyclic_tasks:
        raise ModelError(
            f"structural delta {delta!r} introduces a dependency/ordering cycle "
            f"through tasks {', '.join(child.cyclic_tasks)}"
        )
    _count_patch()
    return child


def structural_dirty_names(
    parent: CompiledProblem, child: CompiledProblem, delta: StructureOverlay
) -> frozenset:
    """Tasks whose analysis results a structural edit can affect.

    Forward closure over the *union* of the parent's and the child's
    effective dependency relations (graph edges plus implicit same-core
    edges), seeded per edit kind — the dask/distributed "graph state" idea:
    keeping both adjacency directions around makes the affected set one BFS,
    no re-derivation.  Everything outside the closure provably keeps its
    cold-analysis release and finish, which is what the analyzer warm starts
    lean on.  Removed tasks are not part of the result (they do not exist in
    the child); their dependents are.
    """
    kind = delta.kind
    if kind == "noop":
        return frozenset()
    if kind == "remove_task":
        seeds = [
            parent.names[j]
            for j in parent.dependents_of(parent.index_of[delta.task])
        ]
    elif kind in ("add_edge", "remove_edge"):
        seeds = [delta.consumer]
    else:  # add_task / remap_task
        seeds = [delta.task]

    # name-keyed union adjacency: an edit changes implicit mapping edges in
    # both directions, so dependents in *either* generation must go dirty
    forward: Dict[str, set] = {}
    for kernel in (parent, child):
        names = kernel.names
        for i in range(len(names)):
            row = forward.setdefault(names[i], set())
            for j in kernel.dependents_of(i):
                row.add(names[j])

    dirty: set = set()
    stack = [seed for seed in seeds if seed in forward]
    while stack:
        node = stack.pop()
        if node in dirty:
            continue
        dirty.add(node)
        stack.extend(forward.get(node, ()))
    if kind == "remove_task":
        dirty.discard(delta.task)
    return frozenset(name for name in dirty if name in child.index_of)


class WarmStart:
    """Parent solution + dirty set, enough to warm-start a child analysis.

    ``dirty`` holds child task ids whose results the edit may change;
    ``first_affected_time`` is the earliest instant the child's execution can
    diverge from the parent's (``None`` for a no-op edit: nothing diverges,
    the parent schedule is reused outright).  Built by
    :func:`compute_warm_start`; consumed by the kernel-aware analyzers.
    """

    __slots__ = ("schedule", "dirty", "first_affected_time")

    def __init__(
        self,
        schedule: Schedule,
        dirty: frozenset,
        first_affected_time: Optional[int],
    ) -> None:
        self.schedule = schedule
        self.dirty = frozenset(dirty)
        self.first_affected_time = (
            None if first_affected_time is None else int(first_affected_time)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WarmStart(dirty={len(self.dirty)}, "
            f"first_affected_time={self.first_affected_time})"
        )


def compute_warm_start(
    parent: CompiledProblem,
    child: CompiledProblem,
    delta: StructureOverlay,
    schedule: Schedule,
) -> WarmStart:
    """Derive the :class:`WarmStart` for ``child`` from the parent's solution.

    ``first_affected_time`` is a sound lower bound on the first instant the
    child's execution can diverge from the parent's.  The child and parent
    runs proceed in lockstep until the first *divergence event*: a dirty (or
    new) task opening in the child, or a dirty/removed task opening in the
    parent (the child cannot be assumed to replicate that opening).  On the
    child side, a dirty task cannot open before ``max(min_release, parent
    finishes of its clean effective predecessors)`` — the earliest dirty
    opener has only clean predecessors, whose pre-divergence finishes equal
    the parent's — and a dirty predecessor ``p`` of a later dirty task cannot
    finish before its own bound plus ``wcet[p]``.  On the parent side the
    openings are known exactly: the parent releases of the dirty tasks (and,
    for ``remove_task``, of the removed task) cap the bound directly.
    """
    dirty_names = structural_dirty_names(parent, child, delta)
    dirty = frozenset(child.index_of[name] for name in dirty_names)
    if delta.is_noop():
        return WarmStart(schedule, dirty, None)

    finishes: Dict[str, int] = {entry.name: entry.finish for entry in schedule.entries()}
    bounds: Dict[int, int] = {}
    for i in child.topo_order:
        if i not in dirty:
            continue
        bound = child.min_release[i]
        for p in child.predecessors_of(i):
            if p in bounds:
                bound = max(bound, bounds[p] + child.wcet[p])
            else:
                parent_finish = finishes.get(child.names[p])
                if parent_finish is not None:
                    bound = max(bound, parent_finish)
        bounds[i] = bound
    candidates = [bounds[i] for i in dirty if i in bounds]
    candidates.extend(child.min_release[i] for i in dirty if i not in bounds)
    releases: Dict[str, int] = {entry.name: entry.release for entry in schedule.entries()}
    for i in dirty:
        parent_release = releases.get(child.names[i])
        if parent_release is not None:
            candidates.append(parent_release)
    if delta.kind == "remove_task":
        removed = delta.task
        removed_release = releases.get(removed)
        if removed_release is not None:
            candidates.append(removed_release)
        else:
            candidates.append(parent.min_release[parent.index_of[removed]])
    return WarmStart(schedule, dirty, min(candidates))


class PatchedProblem(OverlayProblem):
    """Builds a structural probe: patches the parent and warm-starts the child.

    The probe's kernel is ``parent`` patched with ``delta`` (or the given
    ``kernel``), its overlay is the identity, and — when a parent schedule
    was supplied — ``warm`` is the :class:`WarmStart` the analyzers use to
    skip the unchanged prefix.  Parameter and structural dimensions compose
    by patching first, then binding a :class:`ParamOverlay` onto the patched
    kernel.  Everything else is the plain :class:`OverlayProblem` surface.
    """

    __slots__ = ()

    def __init__(
        self,
        parent: CompiledProblem,
        delta: StructureOverlay,
        *,
        name: Optional[str] = None,
        kernel: Optional[CompiledProblem] = None,
        warm: Optional[WarmStart] = None,
        parent_schedule: Optional[Schedule] = None,
    ) -> None:
        if kernel is None:
            kernel = patch_problem(parent, delta, name=name)
        super().__init__(kernel, _IDENTITY_OVERLAY, name=name)
        self.parent = parent
        self.delta = delta
        if warm is None and parent_schedule is not None:
            warm = compute_warm_start(parent, kernel, delta, parent_schedule)
        self.warm = warm

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PatchedProblem({self.name!r}, tasks={self.task_count}, "
            f"delta={self.delta!r}, warm={self.warm is not None})"
        )
