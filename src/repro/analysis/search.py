"""Batch-aware design-space search: generations of probe problems.

The searches of this package (sensitivity bracketing, horizon minimisation,
interference costing) all share one shape: build a *probe problem* from the
current search state, analyse it, feed the verdict back into the state, and
repeat.  Run naively that is hundreds of strictly serial :func:`repro.analyze`
calls — exactly the workload the paper says the fast analysis should make
interactive (Section I), and exactly the workload the PR-1 batch engine was
built for.

This module is the bridge.  A :class:`SearchDriver` evaluates *generations* of
probe problems:

* in **batch** mode a generation is fanned out through
  :class:`repro.engine.BatchAnalyzer` — process-pool parallelism plus the
  two-tier result cache, so a warm repeat of a whole search performs zero
  analyzer invocations;
* in **serial** mode (``batch=False``) a generation is evaluated with plain
  :func:`repro.analyze` calls, one by one — the original behaviour, preserved
  as a fallback.

:func:`bracket_search` expresses the bracket-then-bisect factor search of
:mod:`repro.analysis.sensitivity` on top of it.  Batched runs widen each
generation with *speculative* bisection probes (the next ``speculation``
levels of the bisection tree are analysed before their verdicts are needed),
then replay the serial algorithm against the precomputed verdicts.  The replay
records exactly the probes the serial search would have made, so the returned
:class:`SensitivityResult` — breaking factor, makespan and probe trace — is
bit-identical to the serial implementation's.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..core import AnalysisProblem, OverlayProblem, Schedule, analyze
from ..core.analyzer import INCREMENTAL
from ..engine import BatchAnalyzer, CacheStats, EngineRuntime, ResultCache
from ..errors import AnalysisError

__all__ = [
    "SensitivityResult",
    "SearchProgressEvent",
    "SearchProgressCallback",
    "SearchDriver",
    "adaptive_speculation",
    "bracket_search",
    "resolve_algorithm",
]


#: ceiling on the lookahead, adaptive or pinned (2**8 - 1 probes/generation)
MAX_SPECULATION = 8


def adaptive_speculation(
    workers: int,
    latency_ewma_seconds: Optional[float] = None,
    *,
    generation_overhead_seconds: float = 0.05,
) -> int:
    """Bisection-lookahead levels that saturate ``workers`` parallel slots.

    A speculative generation of ``s`` lookahead levels carries up to
    ``2**s - 1`` bisection-ladder probes; this picks the smallest ``s`` that
    keeps every worker busy, so wider pools automatically probe deeper while
    a serial pool does not waste analyzer invocations on rungs it cannot run
    in parallel anyway.  (The search verdict is identical for every value —
    speculation only trades wasted probes for wall-clock.)

    ``latency_ewma_seconds`` — the observed per-probe analyzer latency, as a
    warm :class:`repro.engine.EngineRuntime` measures it — refines the pick:
    every extra lookahead level halves the number of synchronization rounds a
    bisection needs but at most doubles the wasted probes, so while a whole
    extra rung (``2**(s+1)`` probes) costs less analyzer time than one
    generation round trip (``generation_overhead_seconds``), deepening is
    (nearly) free and the lookahead grows beyond the pure worker-count rule —
    cheap probes speculate deeper, expensive probes stay at pool saturation.
    Capped at :data:`MAX_SPECULATION`.
    """
    if workers <= 1:
        speculation = 1
    else:
        speculation = max(1, math.ceil(math.log2(workers + 1)))
    if latency_ewma_seconds is not None and latency_ewma_seconds > 0:
        while (
            speculation < MAX_SPECULATION
            and (2 ** (speculation + 1)) * latency_ewma_seconds
            < generation_overhead_seconds
        ):
            speculation += 1
    return speculation


@dataclass(frozen=True)
class SensitivityResult:
    """Outcome of a sensitivity search."""

    #: largest factor found schedulable (0.0 when even the unscaled problem fails)
    breaking_factor: float
    #: makespan at the breaking factor (None when nothing was schedulable)
    makespan_at_break: Optional[int]
    #: every factor probed with its verdict, in probing order
    probes: Tuple[Tuple[float, bool], ...]

    def probed_factors(self) -> List[float]:
        return [factor for factor, _ in self.probes]

    def to_dict(self) -> Dict[str, object]:
        return {
            "breaking_factor": self.breaking_factor,
            "makespan_at_break": self.makespan_at_break,
            "probes": [[factor, ok] for factor, ok in self.probes],
        }


@dataclass(frozen=True)
class SearchProgressEvent:
    """One finished generation of probe problems."""

    #: 1-based index of the generation within the current search
    generation: int
    #: probe problems evaluated in this generation
    probes: int
    #: cumulative probes over the search so far
    total_probes: int
    #: analyzer invocations in this generation (the rest came from the cache)
    computed: int
    #: probes of this generation served from the result cache
    cached: int
    #: seconds since the search started
    elapsed_seconds: float
    #: rough number of generations still ahead (None when unknown)
    remaining_generations: Optional[int] = None

    def eta_seconds(self) -> Optional[float]:
        """Estimated seconds to completion from average generation time."""
        if self.remaining_generations is None or self.generation == 0:
            return None
        return (self.elapsed_seconds / self.generation) * self.remaining_generations


SearchProgressCallback = Callable[[SearchProgressEvent], None]


class SearchDriver:
    """Evaluates generations of probe problems, batched or serial.

    ``batch=True`` (the default) routes every generation through a
    :class:`~repro.engine.BatchAnalyzer` — cache-backed, fanned out over
    ``max_workers`` processes — and widens bisection searches with
    ``speculation`` levels of lookahead probes per generation.
    ``batch=False`` is the strictly serial fallback: plain :func:`analyze`
    calls, no cache, no speculation, exactly the legacy call sequence.

    One driver can be reused across searches; its cache then spans them, so
    repeating a search (or running a neighbouring one) turns shared probes
    into pure lookups.  ``cache`` accepts a :class:`~repro.engine.ResultCache`
    or a directory path for a persistent store.

    ``runtime`` binds the driver to a persistent
    :class:`repro.engine.EngineRuntime`: every generation then executes on
    the runtime's warm pool — a whole multi-generation search performs zero
    pool constructions — and shares its result cache (unless an explicit
    ``cache`` is given).  ``speculation=None`` (the default) adapts the
    lookahead to the worker count via :func:`adaptive_speculation`, refined
    by the runtime's observed per-job latency EWMA at every
    :meth:`begin_search`; pass an integer to pin it.

    :raises AnalysisError: on a ``speculation`` outside ``0..MAX_SPECULATION``
        (each level doubles a generation's probes), or when ``runtime`` is
        combined with ``batch=False``.
    """

    def __init__(
        self,
        algorithm: str = INCREMENTAL,
        *,
        batch: bool = True,
        max_workers: Optional[int] = None,
        cache: Union[ResultCache, str, None] = None,
        speculation: Optional[int] = None,
        progress: Optional[SearchProgressCallback] = None,
        runtime: Optional[EngineRuntime] = None,
    ) -> None:
        if speculation is not None and not 0 <= speculation <= MAX_SPECULATION:
            raise AnalysisError(f"speculation must be 0..{MAX_SPECULATION}, got {speculation}")
        self.algorithm = algorithm
        self.batch = bool(batch)
        if runtime is not None and not self.batch:
            raise AnalysisError("a serial driver (batch=False) cannot use a runtime")
        self.runtime = runtime
        self._analyzer: Optional[BatchAnalyzer] = (
            BatchAnalyzer(algorithm, max_workers=max_workers, cache=cache, runtime=runtime)
            if self.batch
            else None
        )
        #: bisection-lookahead levels per generation (0 in serial mode);
        #: defaults adaptively to the worker count — and, on a warm runtime,
        #: to the observed per-probe latency EWMA (re-picked per search by
        #: :meth:`begin_search`, so a long-lived driver deepens its lookahead
        #: as the runtime learns how cheap the probes actually are)
        self._adaptive = self.batch and speculation is None
        if self._analyzer is None:
            self.speculation = 0
        elif speculation is None:
            self.speculation = adaptive_speculation(
                self._analyzer.workers, self._runtime_latency()
            )
        else:
            self.speculation = int(speculation)
        self.progress = progress
        self.total_computed = 0
        self.total_cached = 0
        self._generation = 0
        self._total_probes = 0
        self._search_started: Optional[float] = None

    @property
    def cache(self) -> Optional[ResultCache]:
        """Result cache behind the batch path (None in serial mode)."""
        return self._analyzer.cache if self._analyzer is not None else None

    @property
    def stats(self) -> Optional[CacheStats]:
        """Hit/miss counters of the cache (None in serial mode)."""
        cache = self.cache
        return cache.stats if cache is not None else None

    def _runtime_latency(self) -> Optional[float]:
        """Per-job latency EWMA of the bound runtime (None without one)."""
        if self.runtime is None:
            return None
        return self.runtime.latency_ewma_seconds

    def begin_search(self) -> None:
        """Reset the per-search progress counters (called by search entry points).

        An adaptive driver (``speculation=None``) also re-picks its lookahead
        here from the runtime's current latency EWMA — the ROADMAP follow-on
        to worker-count speculation: by the second search on a warm runtime
        the observed per-probe cost, not just the pool width, sizes the
        speculative generations.  The probe trace is unaffected (speculation
        only trades wasted probes for wall clock).
        """
        if self._adaptive:
            self.speculation = adaptive_speculation(
                self._analyzer.workers, self._runtime_latency()
            )
        self._generation = 0
        self._total_probes = 0
        self._search_started = time.perf_counter()

    def evaluate(
        self,
        problems: Sequence[Union[AnalysisProblem, OverlayProblem]],
        *,
        remaining_generations: Optional[int] = None,
    ) -> List[Schedule]:
        """Analyse one generation of probe problems, in submission order.

        Probes may be plain problems or :class:`~repro.core.OverlayProblem`
        deltas against one compiled kernel — the delta re-analysis path the
        sensitivity searches use, where the base problem's structure is
        compiled exactly once for the whole search.
        """
        problems = list(problems)
        if self._search_started is None:
            self.begin_search()
        if not problems:
            return []
        with obs.span(
            "search.generation",
            generation=self._generation + 1,
            probes=len(problems),
        ) as generation_span:
            if self._analyzer is not None:
                report = self._analyzer.run(problems)
                schedules = report.schedules
                computed, cached = report.computed, report.cached
            else:
                schedules = [analyze(problem, self.algorithm) for problem in problems]
                computed, cached = len(schedules), 0
            generation_span.set(computed=computed, cached=cached)
        self.total_computed += computed
        self.total_cached += cached
        self._generation += 1
        self._total_probes += len(problems)
        if self.progress is not None:
            self.progress(
                SearchProgressEvent(
                    generation=self._generation,
                    probes=len(problems),
                    total_probes=self._total_probes,
                    computed=computed,
                    cached=cached,
                    elapsed_seconds=time.perf_counter() - (self._search_started or 0.0),
                    remaining_generations=remaining_generations,
                )
            )
        return schedules


def resolve_algorithm(algorithm: Optional[str], driver: Optional["SearchDriver"]) -> str:
    """Algorithm a search should run: the driver's when one is given.

    Searches accept both an ``algorithm`` name (serial path) and a ``driver``
    (which was constructed with its own algorithm).  Passing both only makes
    sense when they agree — a mismatch raises instead of silently running
    whichever one the implementation happens to prefer.
    """
    if driver is None:
        return algorithm if algorithm is not None else INCREMENTAL
    if algorithm is not None and algorithm != driver.algorithm:
        raise AnalysisError(
            f"algorithm {algorithm!r} conflicts with the driver's "
            f"{driver.algorithm!r}; pass one or the other"
        )
    return driver.algorithm


def _bisects(low: float, high: float, tolerance: float) -> bool:
    """Whether the bisection of (low, high) goes on: the one stop rule.

    It stops once the span is within ``tolerance`` or the midpoint rounds
    onto an endpoint — past float resolution another probe would repeat one.
    """
    return high - low > tolerance and low < (low + high) / 2.0 < high


def _bisection_ladder(low: float, high: float, depth: int, tolerance: float) -> List[float]:
    """Every factor a ``depth``-level bisection of (low, high) might probe.

    The recursion prunes exactly where the search loop stops
    (:func:`_bisects`), so no ladder rung can fall outside the factors the
    replay may request.
    """
    if depth <= 0 or not _bisects(low, high, tolerance):
        return []
    mid = (low + high) / 2.0
    return [
        mid,
        *_bisection_ladder(low, mid, depth - 1, tolerance),
        *_bisection_ladder(mid, high, depth - 1, tolerance),
    ]


def _remaining_levels(low: float, high: float, tolerance: float) -> int:
    """Bisection levels left before (low, high) narrows within ``tolerance``.

    An estimate for progress reports; like :func:`_bisects` it also stops at
    float resolution.
    """
    if not _bisects(low, high, tolerance):
        return 0
    return max(1, math.ceil(math.log2((high - low) / max(tolerance, math.ulp(high)))))


class _Prober:
    """Verdict store that fetches unknown factors one generation at a time."""

    def __init__(
        self,
        rebuild: Callable[[float], Union[AnalysisProblem, OverlayProblem]],
        driver: SearchDriver,
    ) -> None:
        self._rebuild = rebuild
        self._driver = driver
        self._known: Dict[float, Schedule] = {}

    def ensure(
        self, factors: Sequence[float], *, remaining_generations: Optional[int] = None
    ) -> None:
        """Evaluate (as one generation) every listed factor not yet known."""
        missing: List[float] = []
        for factor in factors:
            if factor not in self._known and factor not in missing:
                missing.append(factor)
        if not missing:
            return
        schedules = self._driver.evaluate(
            [self._rebuild(factor) for factor in missing],
            remaining_generations=remaining_generations,
        )
        self._known.update(zip(missing, schedules))

    def schedule(self, factor: float) -> Schedule:
        return self._known[factor]


def bracket_search(
    rebuild: Callable[[float], Union[AnalysisProblem, OverlayProblem]],
    *,
    driver: SearchDriver,
    max_factor: float,
    tolerance: float,
) -> SensitivityResult:
    """Largest factor in [1, ``max_factor``] whose rebuilt problem is schedulable.

    The search first probes the baseline (factor 1.0) and the ceiling
    (``max_factor``), then bisects the bracket down to ``tolerance``.  With a
    batched driver each generation carries the next ``driver.speculation``
    levels of the bisection tree as speculative probes, and the bisection then
    *replays* the serial algorithm against the precomputed verdicts —
    advancing up to ``speculation`` levels per generation while recording
    exactly the serial probe sequence.  The result is therefore identical to
    the serial search's, whatever the driver.  Bisection stops once the
    bracket is within ``tolerance`` or its midpoint no longer falls strictly
    inside it (float resolution), so every search terminates.

    :raises AnalysisError: on a ``max_factor`` that is not a finite number
        above 1, or a ``tolerance`` that is not above 0.
    """
    if not (math.isfinite(max_factor) and max_factor > 1.0):
        raise AnalysisError(f"max_factor must be a finite number > 1, got {max_factor}")
    if not tolerance > 0:
        raise AnalysisError(f"tolerance must be > 0, got {tolerance}")
    driver.begin_search()
    speculation = driver.speculation
    levels = _remaining_levels(1.0, max_factor, tolerance)
    per_generation = max(1, speculation)
    probes: List[Tuple[float, bool]] = []
    prober = _Prober(rebuild, driver)

    def record(factor: float) -> Tuple[bool, Optional[int]]:
        schedule = prober.schedule(factor)
        ok = schedule.schedulable
        probes.append((factor, ok))
        return ok, (schedule.makespan if ok else None)

    # generation 0: the baseline probe — batched drivers add the ceiling and
    # the first speculative bisection rungs, serial drivers probe it alone
    first: List[float] = [1.0]
    if speculation:
        first.append(max_factor)
        first.extend(_bisection_ladder(1.0, max_factor, speculation - 1, tolerance))
    # batched mode folds the ceiling into generation 0, so only the bisection
    # generations remain; serially the ceiling still costs a generation of its own
    prober.ensure(
        first,
        remaining_generations=(0 if speculation else 1) + math.ceil(levels / per_generation),
    )
    ok, makespan = record(1.0)
    if not ok:
        return SensitivityResult(0.0, None, tuple(probes))
    best_factor, best_makespan = 1.0, makespan

    low, high = 1.0, max_factor
    prober.ensure([high], remaining_generations=math.ceil(levels / per_generation))
    ok_high, makespan_high = record(high)
    if ok_high:
        return SensitivityResult(high, makespan_high, tuple(probes))

    while _bisects(low, high, tolerance):
        remaining = math.ceil(_remaining_levels(low, high, tolerance) / per_generation)
        if speculation:
            prober.ensure(
                _bisection_ladder(low, high, speculation, tolerance),
                remaining_generations=remaining - 1,
            )
        # replay the serial bisection over the verdicts; a batched driver has
        # them precomputed, a serial one evaluates each mid on demand
        for _ in range(per_generation):
            if not _bisects(low, high, tolerance):
                break
            mid = (low + high) / 2.0
            prober.ensure(
                [mid],
                remaining_generations=math.ceil(
                    _remaining_levels(low, high, tolerance) / per_generation
                )
                - 1,
            )
            ok_mid, makespan_mid = record(mid)
            if ok_mid:
                low, best_factor, best_makespan = mid, mid, makespan_mid
            else:
                high = mid
    return SensitivityResult(best_factor, best_makespan, tuple(probes))
