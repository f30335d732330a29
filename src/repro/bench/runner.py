"""Benchmark runner: build workload sweeps and time both algorithms on them.

This is the programmatic heart of the reproduction of Section V of the paper:
for a given workload family (fixed NL or fixed LS, with a given layer
parameter) it generates random DAGs of increasing size with the paper's
parameter ranges, runs the incremental algorithm and the fixed-point baseline
on the *same* problems, and returns the two timing series together with their
fitted complexity exponents and per-size speedups.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..analysis import ComplexityFit, TimingPoint, TimingSeries, measure_algorithm
from ..core import AnalysisProblem
from ..engine import ResultCache, analyze_many, default_worker_count
from ..errors import GenerationError
from ..generators import fixed_ls_workload, fixed_nl_workload

__all__ = [
    "SweepConfig",
    "ComparisonResult",
    "workload_sweep",
    "measure_algorithm_parallel",
    "measure_sweep",
    "run_comparison",
]

#: algorithm names used throughout the harness
NEW_ALGORITHM = "incremental"
OLD_ALGORITHM = "fixedpoint"


@dataclass(frozen=True)
class SweepConfig:
    """One benchmark configuration: a workload family and a size sweep.

    ``mode`` is ``"LS"`` (fixed layer size) or ``"NL"`` (fixed number of
    layers); ``parameter`` is the corresponding constant (4, 16 or 64 in the
    paper).  ``sizes`` are the task counts to generate.
    """

    mode: str
    parameter: int
    sizes: Tuple[int, ...]
    core_count: int = 16
    seed: int = 2020
    timeout_seconds: Optional[float] = None
    repetitions: int = 1

    def __post_init__(self) -> None:
        if self.mode.upper() not in ("LS", "NL"):
            raise GenerationError(f"mode must be 'LS' or 'NL', got {self.mode!r}")
        if self.parameter <= 0:
            raise GenerationError("parameter must be positive")
        if not self.sizes:
            raise GenerationError("the size sweep must not be empty")
        object.__setattr__(self, "mode", self.mode.upper())
        object.__setattr__(self, "sizes", tuple(sorted(int(size) for size in self.sizes)))

    @property
    def label(self) -> str:
        """Panel label in the paper's notation, e.g. ``LS64`` or ``NL4``."""
        return f"{self.mode}{self.parameter}"


def workload_sweep(config: SweepConfig) -> Iterator[Tuple[int, AnalysisProblem]]:
    """Yield ``(size, problem)`` pairs for the configuration, smallest first.

    The seed is derived from the configuration seed and the size so each point
    is reproducible in isolation (running a single size gives the same DAG as
    running the whole sweep).
    """
    for size in config.sizes:
        seed = config.seed * 1_000_003 + size
        if config.mode == "LS":
            workload = fixed_ls_workload(
                size, config.parameter, core_count=config.core_count, seed=seed
            )
        else:
            workload = fixed_nl_workload(
                size, config.parameter, core_count=config.core_count, seed=seed
            )
        yield size, workload.to_problem()


@dataclass
class ComparisonResult:
    """Timing of both algorithms on one sweep, plus derived quantities."""

    config: SweepConfig
    new_series: TimingSeries
    old_series: TimingSeries

    @property
    def label(self) -> str:
        return self.config.label

    def new_fit(self) -> ComplexityFit:
        return self.new_series.fit()

    def old_fit(self) -> ComplexityFit:
        return self.old_series.fit()

    def speedups(self) -> List[Tuple[int, float]]:
        """Per-size speedup of the new algorithm over the baseline."""
        return self.new_series.speedup_against(self.old_series)

    def best_speedup(self) -> Tuple[int, float]:
        """(size, speedup) of the largest measured speedup (0 when nothing common)."""
        speedups = self.speedups()
        if not speedups:
            return (0, 0.0)
        return max(speedups, key=lambda pair: pair[1])

    def rows(self) -> List[List[str]]:
        """Table rows: size, new time, old time, speedup (for reports and the CLI)."""
        old_by_size = {point.size: point for point in self.old_series.points}
        rows: List[List[str]] = []
        for point in self.new_series.points:
            old_point = old_by_size.get(point.size)
            if old_point is None or old_point.timed_out:
                old_text, speedup_text = "timeout", "-"
            else:
                old_text = f"{old_point.seconds:.3f}"
                speedup_text = (
                    f"{old_point.seconds / point.seconds:.1f}x" if point.seconds > 0 else "-"
                )
            rows.append([str(point.size), f"{point.seconds:.3f}", old_text, speedup_text])
        return rows


def measure_algorithm_parallel(
    problems: Iterable[Tuple[int, AnalysisProblem]],
    algorithm: str,
    *,
    label: str = "",
    max_workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    chunksize: Optional[int] = None,
    runtime: Optional[object] = None,
) -> TimingSeries:
    """Parallel counterpart of :func:`repro.analysis.measure_algorithm`.

    The sweep is fanned out over the batch engine; each point's time is the
    analyzer's own in-worker wall time (``Schedule.stats.wall_time_seconds``),
    so the numbers stay in the same ballpark as serial measurements while the
    sweep itself completes in a fraction of the wall clock.  Caveats: workers
    running concurrently contend for memory bandwidth and cores, which can
    inflate individual timings — use serial mode for measurement-grade numbers
    feeding complexity fits or published tables.  Timeout cut-off and
    repetitions are serial-mode features and do not apply here; cached points
    report the wall time of the run that produced them.

    ``runtime`` executes the sweep on a persistent
    :class:`repro.service.EngineRuntime` — back-to-back sweeps (e.g. both
    algorithms of a comparison) then share one warm pool instead of paying
    pool startup per series.
    """
    pairs = list(problems)
    schedules = analyze_many(
        [problem for _, problem in pairs],
        algorithm,
        max_workers=max_workers,
        cache=cache,
        chunksize=chunksize,
        runtime=runtime,
    )
    series = TimingSeries(label=label or algorithm, algorithm=algorithm)
    for (size, _), schedule in zip(pairs, schedules):
        series.add(
            TimingPoint(
                size=size,
                seconds=schedule.stats.wall_time_seconds,
                makespan=schedule.makespan,
            )
        )
    return series


def measure_sweep(
    config: SweepConfig,
    algorithm: str,
    *,
    label: str,
    max_workers: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    runtime: Optional[object] = None,
) -> TimingSeries:
    """Measure ``algorithm`` on ``config``'s sweep, serially or via the engine.

    ``max_workers=None`` means one worker per CPU, as everywhere in the engine
    API; the default of ``1`` keeps measurement-grade serial timing.

    The single switch between :func:`repro.analysis.measure_algorithm`
    (serial: timeout cut-off, repetitions, uncontended timings) and
    :func:`measure_algorithm_parallel` (engine fan-out) used by the comparison
    and scaling studies.  Supplying a ``cache`` — or a persistent ``runtime``
    (its workers and shared cache are then used; combine with
    ``max_workers`` is rejected by the engine) — routes through the engine;
    with ``max_workers=1`` that is the engine's serial fallback (no pool), so
    cached sweeps work in serial mode too.  ``timeout_seconds`` / ``repetitions``
    always win: when set, the sweep runs on the bounded serial path (with a
    RuntimeWarning if the engine was also requested).
    """
    if runtime is not None:
        engine_requested = True
        max_workers = None
    else:
        if max_workers is None:
            max_workers = default_worker_count()
        engine_requested = max_workers > 1 or cache is not None
    bounded = config.timeout_seconds is not None or config.repetitions > 1
    if engine_requested and bounded:
        # the timeout cut-off exists to keep intractable sweep points from
        # running at all; boundedness beats parallelism, so fall back to the
        # serial path rather than silently running an unbounded sweep
        warnings.warn(
            "measure_sweep: timeout_seconds/repetitions require the serial path; "
            "running serially (engine fan-out and cache disabled for this sweep)",
            RuntimeWarning,
            stacklevel=2,
        )
    if engine_requested and not bounded:
        return measure_algorithm_parallel(
            workload_sweep(config),
            algorithm,
            label=label,
            max_workers=max_workers,
            cache=cache,
            runtime=runtime,
        )
    return measure_algorithm(
        workload_sweep(config),
        algorithm,
        label=label,
        timeout_seconds=config.timeout_seconds,
        repetitions=config.repetitions,
    )


def run_comparison(
    config: SweepConfig,
    *,
    run_baseline: bool = True,
    baseline_sizes: Optional[Sequence[int]] = None,
    max_workers: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    runtime: Optional[object] = None,
) -> ComparisonResult:
    """Time both algorithms on the sweep described by ``config``.

    ``baseline_sizes`` restricts the (slow) baseline to a subset of the sizes —
    the same device the paper uses with its benchmark timeout; the incremental
    algorithm always runs the full sweep.  ``max_workers > 1`` — or supplying a
    ``cache`` or a persistent ``runtime`` (both series then share one warm
    pool) — opts into the batch engine: points are then analysed through it
    (in parallel when ``max_workers > 1``) and per-point times are in-worker
    wall times.  ``timeout_seconds`` / ``repetitions`` take precedence over the
    engine: when either is set the sweep runs on the bounded serial path and a
    RuntimeWarning notes that the engine (and cache) were disabled.
    """
    new_series = measure_sweep(
        config,
        NEW_ALGORITHM,
        label=f"{config.label}-new",
        max_workers=max_workers,
        cache=cache,
        runtime=runtime,
    )
    if run_baseline:
        if baseline_sizes is None:
            baseline_config = config
        else:
            baseline_config = SweepConfig(
                mode=config.mode,
                parameter=config.parameter,
                sizes=tuple(baseline_sizes),
                core_count=config.core_count,
                seed=config.seed,
                timeout_seconds=config.timeout_seconds,
                repetitions=config.repetitions,
            )
        old_series = measure_sweep(
            baseline_config,
            OLD_ALGORITHM,
            label=f"{config.label}-old",
            max_workers=max_workers,
            cache=cache,
            runtime=runtime,
        )
    else:
        old_series = TimingSeries(label=f"{config.label}-old", algorithm=OLD_ALGORITHM)
    return ComparisonResult(config=config, new_series=new_series, old_series=old_series)
