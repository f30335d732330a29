"""Fixed-point interference analysis — the baseline of Rihani et al. (RTNS 2016).

This is the algorithm the paper improves upon.  It alternates two global
fixed-point iterations until the schedule stabilizes:

1. **Response-time fixed point** — with the current release dates, compute the
   interference between every pair of tasks whose execution windows
   ``[rel, rel + R)`` overlap and that are mapped on different cores, per
   memory bank, through the arbiter's IBUS function; update every response
   time ``R = WCET + interference`` and repeat until no response time changes.
2. **Release-date propagation** — recompute every release date as the maximum
   of the task's minimal release date and the finish dates of its (effective)
   predecessors; repeat the whole procedure until the release dates are stable
   or the horizon is exceeded (unschedulable).

The number of iterations of both loops grows with the number of tasks, which
is what makes the overall behaviour O(n⁴)-class (Rihani's thesis [6] proves
the bound); the benchmarks of ``benchmarks/`` measure the practical exponent
exactly like Figure 3 of the paper.

Implementation notes
--------------------
The analyzer runs on the integer-indexed
:class:`~repro.core.kernel.CompiledProblem` arrays (an
:class:`~repro.core.kernel.OverlayProblem` reuses its precompiled kernel; a
plain problem is compiled on entry).  Each response-time iteration finds the
overlapping window pairs with a **sort-based interval sweep** — sort by
release date, keep a min-heap of open windows by finish date — instead of the
historical all-pairs scan: cost per iteration is ``O(n log n + P)`` where
``P`` is the number of actually-overlapping pairs, not ``O(n²)``.  The
interference values are unchanged (the per-(destination, bank) competitor
tables sum the same source multiset, in whatever order the sweep discovers
it), so iteration counts, IBUS call counts and schedules are bit-identical to
the historical implementation; only the constant factor per sweep drops.
"""

from __future__ import annotations

import heapq
import time as _time
from typing import Dict, List, Optional, Tuple, Union

from .. import obs
from ..errors import ConvergenceError
from ..model import MemoryDemand
from .interference import IbusCallCounter, interference_from_overlaps
from .kernel import OverlayProblem, compile_problem
from .problem import AnalysisProblem
from .schedule import Schedule, ScheduledTask, ScheduleStats
from .vector import resolve_backend, run_fixedpoint_vector, vector_supported

__all__ = ["FixedPointAnalyzer", "analyze_fixedpoint"]


class FixedPointAnalyzer:
    """Baseline double fixed-point analysis (Rihani et al., RTNS 2016).

    Parameters
    ----------
    problem:
        The analysis problem to solve — or an
        :class:`~repro.core.kernel.OverlayProblem`, whose precompiled kernel
        is reused instead of re-deriving the static structure.
    max_outer_iterations / max_inner_iterations:
        Safety bounds on the two fixed-point loops.  The defaults are generous
        (proportional to the task count); exceeding them raises
        :class:`~repro.errors.ConvergenceError`, which signals a bug rather
        than an unschedulable input because both iterations are monotone and
        bounded when the horizon check is active.
    backend:
        Analysis backend: ``"auto"`` (default, resolved from
        ``REPRO_ANALYSIS_BACKEND``), ``"vector"`` (the NumPy core of
        :mod:`repro.core.vector`, required) or ``"python"`` (the reference
        loops below).  The vector sweep replays the exact iteration structure
        of the python loops, so both backends produce bit-identical schedules
        and counters; inputs the vector core cannot run (plug-in arbiters,
        int64-overflow magnitudes) silently use the python path.
    """

    def __init__(
        self,
        problem: Union[AnalysisProblem, OverlayProblem],
        *,
        max_outer_iterations: Optional[int] = None,
        max_inner_iterations: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.problem = problem
        n = max(problem.task_count, 1)
        self.max_outer_iterations = max_outer_iterations or (4 * n + 16)
        self.max_inner_iterations = max_inner_iterations or (4 * n + 16)
        self.backend = backend

    # ------------------------------------------------------------------

    def run(self) -> Schedule:
        """Compute the schedule; inspect :attr:`Schedule.schedulable` for the verdict."""
        if not obs.tracing_enabled():
            return self._run()
        with obs.span(
            "analyze.fixedpoint", problem=getattr(self.problem, "name", "")
        ) as phase:
            schedule = self._run()
            phase.set(
                outer_iterations=schedule.stats.outer_iterations,
                inner_iterations=schedule.stats.inner_iterations,
                ibus_calls=schedule.stats.ibus_calls,
                kernel_compilations=schedule.stats.kernel_compilations,
                schedulable=schedule.schedulable,
            )
            return schedule

    def _run(self) -> Schedule:
        started = _time.perf_counter()
        problem = self.problem
        warm = None
        if isinstance(problem, OverlayProblem):
            kernel = problem.kernel
            wcet = problem.wcet_vector()
            demand = problem.demand_vector()
            horizon = problem.horizon
            warm = problem.warm
            compiled = 0
        else:
            if problem.task_count == 0:
                stats = ScheduleStats(algorithm="fixedpoint")
                return Schedule(
                    [], algorithm="fixedpoint", stats=stats, problem_name=problem.name
                )
            kernel = compile_problem(problem)  # traced as kernel.compile
            wcet = kernel.wcet
            demand = kernel.demand
            horizon = kernel.horizon
            compiled = 1
        problem_name = problem.name
        platform = kernel.problem.platform
        arbiter = kernel.problem.arbiter
        counter = IbusCallCounter()

        n = kernel.task_count
        if n == 0:
            stats = ScheduleStats(algorithm="fixedpoint", kernel_compilations=compiled)
            return Schedule(
                [], algorithm="fixedpoint", stats=stats, problem_name=problem_name
            )

        if kernel.cyclic_tasks:
            # the mapping order contradicts the dependencies; Mapping.validate
            # normally catches this earlier with a clearer message
            from ..errors import MappingError

            raise MappingError(
                "per-core execution order contradicts the task dependencies; "
                "involved tasks: " + ", ".join(kernel.cyclic_tasks[:8])
            )

        names = kernel.names
        core_of = kernel.core_of
        topo = kernel.topo_order
        min_release = kernel.min_release
        pred_offsets, pred_list = kernel.pred_offsets, kernel.pred_list

        response: List[int] = list(wcet)
        per_bank: List[Dict[int, int]] = [{} for _ in range(n)]
        # the initial release dates are always derived from the raw WCETs —
        # a warm seed below swaps only the Jacobi start vector, never the
        # release-propagation input, so the outer loop sees the exact state
        # a cold run would
        release = self._propagate_releases(
            topo, pred_offsets, pred_list, min_release, response, n
        )

        warm_hits = 0
        if warm is not None:
            sched = warm.schedule
            if (
                sched.algorithm == "fixedpoint"
                and sched.schedulable
                and not sched.unscheduled
                and problem.overlay.is_identity()
            ):
                if warm.first_affected_time is None and kernel is problem.parent:
                    # no-op structural edit on the parent's own kernel: the
                    # parent schedule *is* this problem's schedule, bit for bit
                    stats = ScheduleStats(
                        algorithm="fixedpoint",
                        outer_iterations=sched.stats.outer_iterations,
                        inner_iterations=sched.stats.inner_iterations,
                        ibus_calls=sched.stats.ibus_calls,
                        wall_time_seconds=_time.perf_counter() - started,
                        kernel_compilations=compiled,
                        warm_start_hits=1,
                        backend=sched.stats.backend,
                    )
                    return Schedule(
                        sched.entries(),
                        algorithm="fixedpoint",
                        schedulable=True,
                        stats=stats,
                        problem_name=problem_name,
                    )
                # seed the first response-time sweep from the parent's
                # converged response times (clamped to the child WCETs; new
                # tasks start from their WCET).  The Jacobi map is monotone,
                # so a seed between the WCET bottom and the sweep's least
                # fixed point converges to that same fixed point in fewer
                # iterations — entries, verdict and makespan match the cold
                # run (property-tested); only inner_iterations / ibus_calls
                # shrink.
                response = [
                    max(
                        wcet[i],
                        sched.entry(names[i]).response_time
                        if names[i] in sched
                        else wcet[i],
                    )
                    for i in range(n)
                ]
                warm_hits = 1

        if resolve_backend(self.backend) == "vector" and vector_supported(
            kernel, wcet, demand, horizon
        ):
            # hand the (possibly warm-seeded) Jacobi start vector to the
            # lockstep engine; it replays the exact same iteration sequence
            # as the loops below, so the result is bit-identical
            seed = response if warm_hits else None
            (
                v_release,
                v_response,
                v_per_bank,
                v_outer,
                v_inner,
                v_calls,
                v_unschedulable,
            ) = run_fixedpoint_vector(
                kernel,
                [wcet],
                [demand],
                [horizon],
                [seed],
                self.max_outer_iterations,
                self.max_inner_iterations,
            )[0]
            entries = [
                ScheduledTask(
                    name=names[i],
                    core=core_of[i],
                    release=v_release[i],
                    wcet=wcet[i],
                    interference_by_bank=v_per_bank[i],
                )
                for i in topo
            ]
            stats = ScheduleStats(
                algorithm="fixedpoint",
                outer_iterations=v_outer,
                inner_iterations=v_inner,
                ibus_calls=v_calls,
                wall_time_seconds=_time.perf_counter() - started,
                kernel_compilations=compiled,
                warm_start_hits=warm_hits,
                backend="vector",
                vector_sweeps=v_inner,
            )
            return Schedule(
                entries,
                algorithm="fixedpoint",
                schedulable=not v_unschedulable,
                unscheduled=[],
                stats=stats,
                problem_name=problem_name,
            )

        outer_iterations = 0
        inner_iterations = 0
        unschedulable = False

        while True:
            outer_iterations += 1
            sweep_started = _time.perf_counter()
            inner_before = inner_iterations
            if outer_iterations > self.max_outer_iterations:
                raise ConvergenceError(
                    f"release-date fixed point did not converge within "
                    f"{self.max_outer_iterations} iterations"
                )

            # ---- phase 1: response-time fixed point for the current releases ----
            # Jacobi iteration, faithful to the formulation of [7]: every new
            # response time is computed from the *previous* iteration's vector,
            # and the sweep is repeated until the vector is stable.
            while True:
                inner_iterations += 1
                if inner_iterations > self.max_inner_iterations * self.max_outer_iterations:
                    raise ConvergenceError(
                        "response-time fixed point did not converge "
                        f"(iteration budget exhausted at outer iteration {outer_iterations})"
                    )
                sources_of = self._overlap_sources(release, response, core_of, n)
                changed = False
                new_response: List[int] = [0] * n
                new_per_bank: List[Dict[int, int]] = [{} for _ in range(n)]
                for dest in topo:
                    overlapping = sources_of[dest]
                    if overlapping:
                        sources: List[Tuple[str, int, MemoryDemand]] = [
                            (names[src], core_of[src], demand[src]) for src in overlapping
                        ]
                        banks = interference_from_overlaps(
                            core_of[dest], demand[dest], sources, arbiter, platform, counter
                        )
                    else:
                        banks = {}
                    new_per_bank[dest] = banks
                    new_response[dest] = wcet[dest] + sum(banks.values())
                    if new_response[dest] != response[dest]:
                        changed = True
                response = new_response
                per_bank = new_per_bank
                if not changed:
                    break

            # ---- phase 2: propagate release dates along the dependencies -------
            new_release = self._propagate_releases(
                topo, pred_offsets, pred_list, min_release, response, n
            )

            makespan = max(new_release[i] + response[i] for i in range(n))
            obs.record_span(
                "fixedpoint.outer",
                _time.perf_counter() - sweep_started,
                iteration=outer_iterations,
                inner_iterations=inner_iterations - inner_before,
            )
            if horizon is not None and makespan > horizon:
                unschedulable = True
                release = new_release
                break

            if new_release == release:
                break
            release = new_release

        entries = [
            ScheduledTask(
                name=names[i],
                core=core_of[i],
                release=release[i],
                wcet=wcet[i],
                interference_by_bank=per_bank[i],
            )
            for i in topo
        ]
        stats = ScheduleStats(
            algorithm="fixedpoint",
            outer_iterations=outer_iterations,
            inner_iterations=inner_iterations,
            ibus_calls=counter.count,
            wall_time_seconds=_time.perf_counter() - started,
            kernel_compilations=compiled,
            warm_start_hits=warm_hits,
            backend="python",
        )
        return Schedule(
            entries,
            algorithm="fixedpoint",
            schedulable=not unschedulable,
            unscheduled=[],
            stats=stats,
            problem_name=problem_name,
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _overlap_sources(
        release: List[int],
        response: List[int],
        core_of: Tuple[int, ...],
        n: int,
    ) -> List[List[int]]:
        """Per task: every other-core task whose window overlaps it.

        Sort-based interval sweep over the half-open windows
        ``[release, release + response)``: walk tasks in release order,
        pruning a min-heap of open windows by finish date.  Every window
        still open when task ``i`` starts overlaps it (windows are never
        empty: ``response >= wcet >= 1``), so each genuinely overlapping
        pair is enumerated exactly once — ``O(n log n + P)`` against the
        historical all-pairs scan's ``O(n²)`` per iteration.
        """
        order = sorted(range(n), key=release.__getitem__)
        open_windows: List[Tuple[int, int]] = []  # (finish, id) min-heap
        sources_of: List[List[int]] = [[] for _ in range(n)]
        for i in order:
            rel = release[i]
            while open_windows and open_windows[0][0] <= rel:
                heapq.heappop(open_windows)
            core = core_of[i]
            for _finish, j in open_windows:
                if core_of[j] != core:
                    sources_of[i].append(j)
                    sources_of[j].append(i)
            heapq.heappush(open_windows, (rel + response[i], i))
        return sources_of

    @staticmethod
    def _propagate_releases(
        topo: Tuple[int, ...],
        pred_offsets: Tuple[int, ...],
        pred_list: Tuple[int, ...],
        min_release: Tuple[int, ...],
        response: List[int],
        n: int,
    ) -> List[int]:
        """One full release-date propagation pass (``topo`` is a topological order)."""
        release: List[int] = [0] * n
        for i in topo:
            value = min_release[i]
            for pred in pred_list[pred_offsets[i] : pred_offsets[i + 1]]:
                finish = release[pred] + response[pred]
                if finish > value:
                    value = finish
            release[i] = value
        return release


def analyze_fixedpoint(
    problem: Union[AnalysisProblem, OverlayProblem],
    *,
    backend: Optional[str] = None,
) -> Schedule:
    """Convenience wrapper: run :class:`FixedPointAnalyzer` and return the schedule."""
    return FixedPointAnalyzer(problem, backend=backend).run()


#: the registry dispatcher hands OverlayProblems straight through (no
#: materialization) — this analyzer consumes the compiled kernel natively
analyze_fixedpoint.kernel_aware = True  # type: ignore[attr-defined]
