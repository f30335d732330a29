"""Benchmark runner: build workload sweeps and time both algorithms on them.

This is the programmatic heart of the reproduction of Section V of the paper:
for a given workload family (fixed NL or fixed LS, with a given layer
parameter) it generates random DAGs of increasing size with the paper's
parameter ranges, runs the incremental algorithm and the fixed-point baseline
on the *same* problems, and returns the two timing series together with their
fitted complexity exponents and per-size speedups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from ..analysis import ComplexityFit, TimingSeries, measure_algorithm
from ..core import AnalysisProblem
from ..errors import GenerationError
from ..generators import fixed_ls_workload, fixed_nl_workload

__all__ = [
    "SweepConfig",
    "ComparisonResult",
    "workload_sweep",
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


def measure_sweep(config: SweepConfig, algorithm: str, *, label: str) -> TimingSeries:
    """Time ``algorithm`` serially on every point of ``config``'s sweep.

    Every point runs in this process through
    :func:`repro.analysis.measure_algorithm`, with the configuration's
    timeout cut-off and repetitions, so each time is an uncontended
    measurement fit for the complexity fits and the published tables.
    """
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
) -> ComparisonResult:
    """Time both algorithms on the sweep described by ``config``.

    ``baseline_sizes`` restricts the (slow) baseline to a subset of the sizes —
    the same device the paper uses with its benchmark timeout; the incremental
    algorithm always runs the full sweep.  Every point is timed serially
    (:func:`measure_sweep`).
    """
    new_series = measure_sweep(config, NEW_ALGORITHM, label=f"{config.label}-new")
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
        old_series = measure_sweep(baseline_config, OLD_ALGORITHM, label=f"{config.label}-old")
    else:
        old_series = TimingSeries(label=f"{config.label}-old", algorithm=OLD_ALGORITHM)
    return ComparisonResult(config=config, new_series=new_series, old_series=old_series)
