"""Vectorized analysis core: NumPy backend for the analysis hot loops.

The pure-Python analyzers iterate over the dense integer arrays of
:class:`~repro.core.kernel.CompiledProblem` one task at a time.  This module
re-expresses the fixed-point analyzer's hot loops as whole-array ufunc passes:

* **Interval overlap** — the sort-based sweep of
  :meth:`FixedPointAnalyzer._overlap_sources` becomes one boolean matrix
  ``overlap[i, j] = (rel_i < fin_j) & (rel_j < fin_i) & (core_i != core_j)``.
  Half-open windows are never empty (``response >= wcet >= 1``), so this is
  exactly the pair set the heap sweep enumerates.
* **Demand accumulation** — per shared bank, the per-core competitor table of
  every destination is one integer matmul ``overlap @ W_b`` where ``W_b``
  scatters each source's demand onto its core column.
* **IBUS evaluation** — every built-in arbiter has a closed-form expression
  over the competitor matrix (min/sum/compare ufuncs), evaluated for all
  destinations at once.  Third-party arbiters have no vector form; the
  analyzer transparently falls back to the pure-Python oracle for them.
* **Release propagation** — tasks are grouped into dependency levels at
  kernel-state build time; one ``np.maximum.reduceat`` per level replaces the
  per-task predecessor walk.

All arithmetic is int64 and replays the exact iteration structure of the
pure-Python loops, so entries, verdicts, makespans, IBUS call counts and
iteration counts are **bit-identical** to the oracle — property-tested in
``tests/core/test_vector_equivalence.py``.

Generation batching
-------------------
:func:`analyze_generation` evaluates a whole :class:`ParamOverlay` generation
(same compiled kernel, k parameter probes) as one 2-D ``(probes × tasks)``
array pass: probes advance their Jacobi iterations in lockstep, each with its
own convergence mask and counters, so one bisection generation costs one
batched pass instead of k scalar analyses.  :meth:`repro.engine.EngineRuntime.run`
routes eligible cache-miss batches here
automatically (and therefore so do ``SearchDriver``/``bracket_search``
generations and the server's ``POST /batch`` overlay form).

Backend selection
-----------------
``REPRO_ANALYSIS_BACKEND`` (or the ``backend=`` kwarg of the analyzers)
chooses ``auto`` (default: vector when NumPy imports, else python),
``vector`` (require NumPy — :class:`~repro.errors.AnalysisError` with an
install hint when it is missing) or ``python`` (always the reference oracle).
NumPy is the optional ``repro[fast]`` extra; without it every entry point
degrades to the pure-Python path with identical results.
"""

from __future__ import annotations

import os
import threading
import time as _time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..errors import AnalysisError, ConvergenceError
from .kernel import CompiledProblem, OverlayProblem
from .schedule import Schedule, ScheduledTask, ScheduleStats

__all__ = [
    "BACKEND_ENV",
    "BACKEND_CHOICES",
    "numpy_available",
    "default_backend",
    "resolve_backend",
    "vector_supported",
    "generation_supported",
    "analyze_generation",
    "vector_sweep_count",
    "generation_pass_count",
]

#: environment variable selecting the analysis backend process-wide
BACKEND_ENV = "REPRO_ANALYSIS_BACKEND"

#: accepted backend names (``auto`` resolves to vector iff NumPy imports)
BACKEND_CHOICES = ("auto", "vector", "python")

#: inputs above this magnitude fall back to the python path: the vector sweep
#: runs in int64 and release/interference accumulation must never overflow
#: (a generous bound — release sums stay < 2**63 for any sane task count)
_INT_GUARD = 1 << 40

_np: Any = None
_np_checked = False

_counter_lock = threading.Lock()
_vector_sweeps = 0
_generation_passes = 0


def _numpy() -> Any:
    """Import numpy once; returns the module or None when unavailable."""
    global _np, _np_checked
    if not _np_checked:
        try:
            import numpy  # noqa: PLC0415 - optional [fast] dependency

            _np = numpy
        except ImportError:
            _np = None
        _np_checked = True
    return _np


def numpy_available() -> bool:
    """True when the optional NumPy dependency imports."""
    return _numpy() is not None


def default_backend() -> str:
    """Process-wide backend from ``REPRO_ANALYSIS_BACKEND`` (default ``auto``)."""
    value = os.environ.get(BACKEND_ENV, "auto").strip().lower() or "auto"
    if value not in BACKEND_CHOICES:
        raise AnalysisError(
            f"unknown analysis backend {value!r} in {BACKEND_ENV}; "
            f"choose from {', '.join(BACKEND_CHOICES)}"
        )
    return value


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve a backend request to ``"vector"`` or ``"python"``.

    ``None`` defers to :func:`default_backend`.  Requesting ``vector``
    without NumPy raises :class:`~repro.errors.AnalysisError` with an install
    hint; ``auto`` silently falls back to ``python`` instead.
    """
    value = (backend or default_backend()).strip().lower()
    if value not in BACKEND_CHOICES:
        raise AnalysisError(
            f"unknown analysis backend {value!r}; choose from {', '.join(BACKEND_CHOICES)}"
        )
    if value == "python":
        return "python"
    if numpy_available():
        return "vector"
    if value == "vector":
        raise AnalysisError(
            "analysis backend 'vector' requires NumPy, which is not installed; "
            "install the optional extra (pip install 'repro[fast]') or use "
            "backend='auto'/'python'"
        )
    return "python"  # auto without numpy


def vector_sweep_count() -> int:
    """Process-wide count of vectorized Jacobi sweeps (one per lockstep pass)."""
    with _counter_lock:
        return _vector_sweeps


def generation_pass_count() -> int:
    """Process-wide count of batched generation passes executed."""
    with _counter_lock:
        return _generation_passes


def _count(sweeps: int = 0, passes: int = 0) -> None:
    global _vector_sweeps, _generation_passes
    with _counter_lock:
        _vector_sweeps += sweeps
        _generation_passes += passes


# ----------------------------------------------------------------------
# per-kernel cached state
# ----------------------------------------------------------------------


class _VectorState:
    """NumPy views of a kernel's static arrays (cached on the kernel)."""

    __slots__ = (
        "n",
        "wcet0",
        "min_release",
        "core_col",
        "ncores",
        "topo",
        "levels",
        "roots",
        "base_demand",
        "arbiter_fn",
        "static_max",
        "core_order",
        "core_starts",
        "present_cols",
        "diff_core",
    )

    def __init__(self, kernel: CompiledProblem) -> None:
        np = _numpy()
        n = kernel.task_count
        self.n = n
        self.wcet0 = np.asarray(kernel.wcet, dtype=np.int64)
        self.min_release = np.asarray(kernel.min_release, dtype=np.int64)
        self.topo = np.asarray(kernel.topo_order, dtype=np.int64)
        core_index = {core: col for col, core in enumerate(kernel.core_ids)}
        self.core_col = np.asarray(
            [core_index[core] for core in kernel.core_of], dtype=np.int64
        )
        self.ncores = len(kernel.core_ids)

        # dependency levels for the release propagation: level 0 tasks have no
        # effective predecessors; a task's level is 1 + max over its preds.
        # Dependencies only ever point to strictly lower levels, so a
        # level-by-level maximum pass produces exactly the topo-order result.
        pred_offsets, pred_list = kernel.pred_offsets, kernel.pred_list
        level = [0] * n
        depth = 0
        for i in kernel.topo_order:
            preds = pred_list[pred_offsets[i] : pred_offsets[i + 1]]
            if preds:
                level[i] = 1 + max(level[p] for p in preds)
                depth = max(depth, level[i])
        grouped: List[List[int]] = [[] for _ in range(depth + 1)]
        for i in kernel.topo_order:
            grouped[level[i]].append(i)
        self.roots = np.asarray(grouped[0], dtype=np.int64)
        #: per level >= 1: (nodes, concatenated pred ids, segment offsets)
        self.levels: List[Tuple[Any, Any, Any]] = []
        for nodes in grouped[1:]:
            src: List[int] = []
            off: List[int] = []
            for i in nodes:
                off.append(len(src))
                src.extend(pred_list[pred_offsets[i] : pred_offsets[i + 1]])
            self.levels.append(
                (
                    np.asarray(nodes, dtype=np.int64),
                    np.asarray(src, dtype=np.int64),
                    np.asarray(off, dtype=np.int64),
                )
            )

        # tasks grouped by core column: summing an overlap row segment-wise
        # over this order is the (much cheaper) reduceat form of the
        # ``overlap @ scatter`` competitor matmul
        self.core_order = np.argsort(self.core_col, kind="stable")
        sorted_cols = self.core_col[self.core_order]
        if n:
            starts = np.flatnonzero(
                np.concatenate(([True], sorted_cols[1:] != sorted_cols[:-1]))
            )
            self.core_starts = starts
            self.present_cols = sorted_cols[starts]
        else:
            self.core_starts = np.zeros(0, dtype=np.int64)
            self.present_cols = np.zeros(0, dtype=np.int64)
        #: diff_core[i, j'] — task i and the j'-th core-ordered task run on
        #: different cores (the static half of the overlap predicate)
        self.diff_core = self.core_col[:, None] != sorted_cols[None, :]

        self.base_demand = _demand_banks(kernel, kernel.demand)
        self.arbiter_fn = _arbiter_kernel(kernel)
        static_max = 0
        if n:
            static_max = max(int(self.wcet0.max()), int(self.min_release.max()))
        for _bank, _latency, accesses in self.base_demand:
            if accesses.size:
                static_max = max(static_max, int(accesses.max()))
        self.static_max = static_max


def _vector_state(kernel: CompiledProblem) -> _VectorState:
    state = kernel._vector_state
    if state is None:
        state = _VectorState(kernel)
        kernel._vector_state = state  # write-once, like the digest pair
    return state


def _demand_banks(
    kernel: CompiledProblem, demand: Sequence[Any]
) -> List[Tuple[Any, int, Any]]:
    """Per contended bank: ``(bank id, latency, per-task access vector)``.

    Banks reserved for a core never carry interference and are dropped here,
    exactly like the scalar :func:`interference_from_overlaps` path.
    """
    np = _numpy()
    platform = kernel.problem.platform
    reserved = kernel.reserved_banks
    per_bank: Dict[int, Any] = {}
    for i, task_demand in enumerate(demand):
        for bank_id, accesses in task_demand.items():
            if accesses <= 0 or bank_id in reserved:
                continue
            row = per_bank.get(bank_id)
            if row is None:
                row = per_bank.setdefault(
                    bank_id, np.zeros(kernel.task_count, dtype=np.int64)
                )
            row[i] = accesses
    return [
        (bank_id, platform.bank(bank_id).access_latency, per_bank[bank_id])
        for bank_id in sorted(per_bank)
    ]


# ----------------------------------------------------------------------
# vectorized arbiters
# ----------------------------------------------------------------------


def _arbiter_kernel(kernel: CompiledProblem) -> Optional[Any]:
    """Closed-form vector evaluator for the kernel's arbiter, or None.

    The returned callable maps ``(dest_accesses (m,), comp (m, ncores),
    dest_col (m,), latency)`` to per-destination interference ``(m,)`` in
    int64 — the exact integer arithmetic of the scalar arbiter, evaluated for
    every destination at once.  Unknown (plug-in) arbiter types return None
    and the analyzers fall back to the pure-Python oracle.
    """
    np = _numpy()
    from ..arbiter.fifo import FifoArbiter
    from ..arbiter.fixed_priority import FixedPriorityArbiter
    from ..arbiter.multilevel import MultiLevelRoundRobinArbiter
    from ..arbiter.null import NullArbiter
    from ..arbiter.round_robin import RoundRobinArbiter, WeightedRoundRobinArbiter
    from ..arbiter.tdm import TdmArbiter

    arbiter = kernel.problem.arbiter
    core_ids = kernel.core_ids
    kind = type(arbiter)

    if kind is NullArbiter:

        def null_fn(d: Any, comp: Any, dest_col: Any, latency: int) -> Any:
            return np.zeros(d.shape, dtype=np.int64)

        return null_fn

    if kind is FifoArbiter:

        def fifo_fn(d: Any, comp: Any, dest_col: Any, latency: int) -> Any:
            return comp.sum(axis=-1) * latency

        return fifo_fn

    if kind is RoundRobinArbiter:

        def rr_fn(d: Any, comp: Any, dest_col: Any, latency: int) -> Any:
            return np.minimum(d[..., None], comp).sum(axis=-1) * latency

        return rr_fn

    if kind is WeightedRoundRobinArbiter:
        weight_col = np.asarray(
            [arbiter.weight_of(core) for core in core_ids], dtype=np.int64
        )

        def wrr_fn(d: Any, comp: Any, dest_col: Any, latency: int) -> Any:
            return np.minimum(d[..., None] * weight_col, comp).sum(axis=-1) * latency

        return wrr_fn

    if kind is FixedPriorityArbiter:
        prio_col = np.asarray(
            [arbiter.priority_of(core) for core in core_ids], dtype=np.int64
        )

        def fp_fn(d: Any, comp: Any, dest_col: Any, latency: int) -> Any:
            higher = prio_col < prio_col[dest_col][..., None]
            higher_sum = np.where(higher, comp, 0).sum(axis=-1)
            lower_sum = np.where(higher, 0, comp).sum(axis=-1)
            return (higher_sum + np.minimum(d, lower_sum)) * latency

        return fp_fn

    if kind is TdmArbiter:
        frame = arbiter.frame_slots
        foreign_col = np.asarray(
            [frame - arbiter.slots_of(core) for core in core_ids], dtype=np.int64
        )
        if core_ids and int(foreign_col.min()) < 0:
            return None  # scalar path raises ArbiterError with the exact message

        def tdm_fn(d: Any, comp: Any, dest_col: Any, latency: int) -> Any:
            any_comp = (comp > 0).any(axis=-1)
            return np.where(any_comp, d * foreign_col[dest_col] * latency, 0)

        return tdm_fn

    if kind is MultiLevelRoundRobinArbiter:
        group_col = np.asarray(
            [arbiter.group_of(core) for core in core_ids], dtype=np.int64
        )
        groups = sorted(set(int(g) for g in group_col))
        member = np.asarray(
            [[1 if int(g) == grp else 0 for grp in groups] for g in group_col],
            dtype=np.int64,
        )  # (ncores, ngroups)
        group_of_col = np.asarray(
            [groups.index(int(g)) for g in group_col], dtype=np.int64
        )

        def ml_fn(d: Any, comp: Any, dest_col: Any, latency: int) -> Any:
            same = group_col == group_col[dest_col][..., None]
            same_delay = np.minimum(d[..., None], np.where(same, comp, 0)).sum(axis=-1)
            totals = comp @ member  # (m, ngroups)
            m = d.shape[0]
            totals[np.arange(m), group_of_col[dest_col]] = 0
            other_delay = np.minimum(d[..., None], totals).sum(axis=-1)
            return (same_delay + other_delay) * latency

        return ml_fn

    return None


# ----------------------------------------------------------------------
# support predicates
# ----------------------------------------------------------------------


def vector_supported(
    kernel: CompiledProblem,
    wcet: Sequence[int],
    demand: Sequence[Any],
    horizon: Optional[int],
) -> bool:
    """True when the vector fixed-point sweep can run this problem.

    False (never an exception) for: NumPy missing, an empty or cyclic kernel,
    a plug-in arbiter with no closed vector form, or parameter magnitudes
    that could overflow the int64 sweep — callers then use the pure-Python
    oracle, which handles every one of those cases.
    """
    if _numpy() is None:
        return False
    if kernel.task_count == 0 or kernel.cyclic_tasks:
        return False
    state = _vector_state(kernel)
    if state.arbiter_fn is None:
        return False
    bound = state.static_max
    if wcet is not kernel.wcet:
        bound = max(bound, max(wcet, default=0))
    if demand is not kernel.demand:
        for task_demand in demand:
            for _bank, accesses in task_demand.items():
                bound = max(bound, accesses)
    if horizon is not None:
        bound = max(bound, horizon)
    return bound < _INT_GUARD


def generation_supported(
    problems: Sequence[Any], algorithm: str, backend: Optional[str] = None
) -> bool:
    """True when :func:`analyze_generation` would run one batched 2-D pass.

    Eligibility: the ``fixedpoint`` algorithm, a resolved ``vector`` backend,
    and every probe a parameter :class:`OverlayProblem` (``delta is None``)
    over the *same* compiled kernel (structural probes carry warm-start state
    the batched pass does not model — they keep the scalar path).
    """
    if algorithm.strip().lower() != "fixedpoint" or not problems:
        return False
    try:
        if resolve_backend(backend) != "vector":
            return False
    except AnalysisError:
        return False
    first = problems[0]
    if not isinstance(first, OverlayProblem):
        return False
    kernel = first.kernel
    if any(
        not isinstance(p, OverlayProblem) or p.delta is not None or p.kernel is not kernel
        for p in problems
    ):
        return False
    return vector_supported(
        kernel, kernel.wcet, kernel.demand, kernel.horizon
    ) and all(
        vector_supported(kernel, p.wcet_vector(), p.demand_vector(), p.horizon)
        for p in problems
    )


# ----------------------------------------------------------------------
# the batched fixed-point engine
# ----------------------------------------------------------------------


def run_fixedpoint_vector(
    kernel: CompiledProblem,
    wcets: Sequence[Sequence[int]],
    demands: Sequence[Sequence[Any]],
    horizons: Sequence[Optional[int]],
    seeds: Sequence[Optional[Sequence[int]]],
    max_outer: int,
    max_inner: int,
) -> List[Tuple[List[int], List[int], List[Dict[int, int]], int, int, int, bool]]:
    """Run k fixed-point analyses over one kernel as lockstep 2-D passes.

    Per probe ``p``: ``wcets[p]``/``demands[p]`` are its parameter vectors,
    ``horizons[p]`` its deadline (None = unbounded) and ``seeds[p]`` an
    optional warm Jacobi start vector (None = start from the WCETs, the cold
    path).  Returns per probe ``(release, response, per_bank, outer, inner,
    ibus_calls, unschedulable)`` — bit-identical to running
    :class:`FixedPointAnalyzer`'s pure-Python loop per probe, because every
    probe replays the exact same iteration sequence, merely evaluated as
    array passes and interleaved with the other probes' iterations.

    The caller must have checked :func:`vector_supported` for every probe.
    """
    np = _numpy()
    state = _vector_state(kernel)
    n = state.n
    k = len(wcets)
    core_col = state.core_col
    arbiter_fn = state.arbiter_fn

    wcet = np.asarray(wcets, dtype=np.int64).reshape(k, n)
    response = np.empty((k, n), dtype=np.int64)
    for p, seed in enumerate(seeds):
        response[p] = wcet[p] if seed is None else np.asarray(seed, dtype=np.int64)

    # per probe bank data; probes sharing the kernel's own demand tuple reuse
    # the cached base vectors (the common case: wcet / horizon probes)
    def with_order(rows: Any) -> List[Tuple[Any, int, Any, Any]]:
        per_probe = []
        for bank_id, latency, accesses in rows:
            per_probe.append((bank_id, latency, accesses, accesses[state.core_order]))
        return per_probe

    base_banks: Optional[List[Tuple[Any, int, Any, Any]]] = None
    banks: List[List[Tuple[Any, int, Any, Any]]] = []
    for p in range(k):
        if demands[p] is kernel.demand:
            if base_banks is None:
                base_banks = with_order(state.base_demand)
            banks.append(base_banks)
        else:
            banks.append(with_order(_demand_banks(kernel, demands[p])))

    horizon_value = np.asarray(
        [h if h is not None else 0 for h in horizons], dtype=np.int64
    )
    has_horizon = np.asarray([h is not None for h in horizons], dtype=bool)

    def propagate(resp: Any) -> Any:
        """Level-order release propagation (one ``reduceat`` per level)."""
        release = np.zeros(resp.shape, dtype=np.int64)
        if state.roots.size:
            release[:, state.roots] = state.min_release[state.roots]
        for nodes, src, off in state.levels:
            finish = release[:, src] + resp[:, src]
            seg = np.maximum.reduceat(finish, off, axis=1)
            release[:, nodes] = np.maximum(seg, state.min_release[nodes])
        return release

    # the initial release dates always derive from the raw WCETs — a warm
    # seed swaps only the Jacobi start vector (the scalar path's exact rule)
    release = propagate(wcet)

    outer = np.ones(k, dtype=np.int64)
    inner = np.zeros(k, dtype=np.int64)
    ibus = np.zeros(k, dtype=np.int64)
    unschedulable = np.zeros(k, dtype=bool)
    alive = np.ones(k, dtype=bool)  # probe still running
    inner_active = alive.copy()  # probe currently inside its Jacobi loop
    per_bank_values: List[Dict[int, Any]] = [{} for _ in range(k)]
    inner_budget = max_inner * max_outer

    while alive.any():
        rows = np.nonzero(inner_active)[0]
        m = len(rows)
        inner[rows] += 1
        if int(inner[rows].max()) > inner_budget:
            worst = int(outer[rows[np.argmax(inner[rows])]])
            raise ConvergenceError(
                "response-time fixed point did not converge "
                f"(iteration budget exhausted at outer iteration {worst})"
            )
        rel = release[rows]
        resp = response[rows]
        fin = rel + resp
        # overlap[p, i, j']: windows intersect and the cores differ, with the
        # j axis already regrouped by core (so the per-core competitor sums
        # below are one reduceat over contiguous segments — int matmul has no
        # BLAS path, so ``overlap @ scatter`` would cost ncores times more);
        # the diagonal falls out of the core test automatically
        order = state.core_order
        rel_ord = rel[:, order]
        fin_ord = fin[:, order]
        overlap = (rel[:, :, None] < fin_ord[:, None, :]) & (
            rel_ord[:, None, :] < fin[:, :, None]
        )
        overlap &= state.diff_core[None, :, :]

        new_response = np.empty((m, n), dtype=np.int64)
        new_response[:] = wcet[rows]
        calls = np.zeros(m, dtype=np.int64)
        for pos, p in enumerate(rows):
            row_overlap = overlap[pos]
            # rebuilt from scratch every iteration, exactly like the scalar
            # loop's new_per_bank — entries reflect the final sweep only
            per_bank_values[p] = {}
            for bank_id, latency, accesses, ordered in banks[p]:
                weighted = np.where(row_overlap, ordered[None, :], 0)
                seg = np.add.reduceat(weighted, state.core_starts, axis=1)
                comp = np.zeros((n, state.ncores), dtype=np.int64)
                comp[:, state.present_cols] = seg  # (n, ncores) competitors
                dest_mask = accesses > 0
                contended = dest_mask & (comp > 0).any(axis=1)
                if not contended.any():
                    continue
                # one arbiter call per (destination, bank) with a non-empty
                # competitor table — the scalar path's exact counting rule
                calls[pos] += int(contended.sum())
                value = arbiter_fn(accesses, comp, core_col, latency)
                value = np.where(contended, value, 0)
                new_response[pos] += value
                per_bank_values[p][bank_id] = value
        _count(sweeps=1)

        changed = (new_response != resp).any(axis=1)
        response[rows] = new_response
        ibus[rows] += calls

        settled = rows[~changed]
        if settled.size:
            # these probes completed their inner loop: propagate releases,
            # check the horizon, then either converge, abort, or start the
            # next outer iteration (rejoining the lockstep on the next pass)
            new_release = propagate(response[settled])
            makespan = (new_release + response[settled]).max(axis=1)
            over = has_horizon[settled] & (makespan > horizon_value[settled])
            stable = (new_release == release[settled]).all(axis=1)

            release[settled[over]] = new_release[over]
            unschedulable[settled[over]] = True
            alive[settled[over]] = False
            inner_active[settled[over]] = False

            done = ~over & stable
            alive[settled[done]] = False
            inner_active[settled[done]] = False

            cont = ~over & ~stable
            cont_rows = settled[cont]
            if cont_rows.size:
                release[cont_rows] = new_release[cont]
                outer[cont_rows] += 1
                if int(outer[cont_rows].max()) > max_outer:
                    raise ConvergenceError(
                        f"release-date fixed point did not converge within "
                        f"{max_outer} iterations"
                    )

    results = []
    for p in range(k):
        per_bank: List[Dict[int, int]] = [{} for _ in range(n)]
        for bank_id, values in per_bank_values[p].items():
            for i in np.nonzero(values)[0]:
                per_bank[int(i)][int(bank_id)] = int(values[i])
        results.append(
            (
                [int(v) for v in release[p]],
                [int(v) for v in response[p]],
                per_bank,
                int(outer[p]),
                int(inner[p]),
                int(ibus[p]),
                bool(unschedulable[p]),
            )
        )
    return results


# ----------------------------------------------------------------------
# generation batching entry point
# ----------------------------------------------------------------------


def analyze_generation(
    problems: Sequence[Any],
    algorithm: str = "fixedpoint",
    *,
    backend: Optional[str] = None,
) -> List[Schedule]:
    """Analyse a whole overlay generation; batched when eligible, serial else.

    When :func:`generation_supported` holds — the ``fixedpoint`` algorithm on
    parameter :class:`OverlayProblem` probes sharing one kernel, vector backend
    resolved — the entire generation runs as one lockstep 2-D pass (counted
    by :func:`generation_pass_count`).  Otherwise every probe is analysed
    individually through the registry, so the result contract is uniform:
    schedules in submission order, bit-identical to serial analysis either way.
    """
    problems = list(problems)
    if not generation_supported(problems, algorithm, backend):
        from .analyzer import analyze

        return [analyze(p, algorithm) for p in problems]

    started = _time.perf_counter()
    kernel = problems[0].kernel
    n = kernel.task_count
    bound_n = max(n, 1)
    max_outer = 4 * bound_n + 16
    max_inner = 4 * bound_n + 16
    with obs.span("analyze.generation", probes=len(problems), tasks=n):
        results = run_fixedpoint_vector(
            kernel,
            [p.wcet_vector() for p in problems],
            [p.demand_vector() for p in problems],
            [p.horizon for p in problems],
            [None] * len(problems),
            max_outer,
            max_inner,
        )
    _count(passes=1)
    elapsed = _time.perf_counter() - started
    share = elapsed / max(len(problems), 1)

    schedules = []
    names = kernel.names
    core_of = kernel.core_of
    for probe, (release, response, per_bank, outer, inner, calls, over) in zip(
        problems, results
    ):
        wcet = probe.wcet_vector()
        entries = [
            ScheduledTask(
                name=names[i],
                core=core_of[i],
                release=release[i],
                wcet=wcet[i],
                interference_by_bank=per_bank[i],
            )
            for i in kernel.topo_order
        ]
        stats = ScheduleStats(
            algorithm="fixedpoint",
            outer_iterations=outer,
            inner_iterations=inner,
            ibus_calls=calls,
            wall_time_seconds=share,
            kernel_compilations=0,
            backend="vector",
            vector_sweeps=inner,
        )
        schedules.append(
            Schedule(
                entries,
                algorithm="fixedpoint",
                schedulable=not over,
                unscheduled=[],
                stats=stats,
                problem_name=probe.name,
            )
        )
    return schedules
