"""Reproduction of the scaling claim of Section VI.

The conclusion of the paper states that the new algorithm "scal[es] to more
than 8000 tasks while maintaining a reasonable execution time".  This module
measures exactly that: the incremental analysis alone on layer-by-layer DAGs
up to (and beyond) 8192 tasks, and — because running the O(n⁴)-class baseline
at that size is intractable — the *predicted* baseline runtime extrapolated
from the complexity fit of the measured small sizes, exactly the way the
log–log regression of Figure 3 is meant to be used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..analysis import ComplexityFit, TimingSeries
from ..viz.report import format_table
from .runner import NEW_ALGORITHM, OLD_ALGORITHM, SweepConfig, measure_sweep

__all__ = ["ScalingReport", "run_scaling_study", "format_scaling_report"]

#: task count quoted in the conclusion of the paper
PAPER_SCALING_TARGET = 8000


@dataclass
class ScalingReport:
    """Outcome of the scaling study."""

    new_series: TimingSeries
    baseline_fit: Optional[ComplexityFit]
    target_size: int

    def time_at_target(self) -> Optional[float]:
        """Measured incremental runtime at (or just above) the target size."""
        candidates = [
            point for point in self.new_series.completed_points() if point.size >= self.target_size
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda point: point.size).seconds

    def predicted_baseline_at_target(self) -> Optional[float]:
        if self.baseline_fit is None:
            return None
        return self.baseline_fit.predict(self.target_size)


def run_scaling_study(
    *,
    mode: str = "LS",
    parameter: int = 64,
    sizes: Tuple[int, ...] = (512, 1024, 2048, 4096, 8192),
    baseline_sizes: Tuple[int, ...] = (64, 128, 256),
    target_size: int = PAPER_SCALING_TARGET,
    seed: int = 2020,
) -> ScalingReport:
    """Measure the incremental algorithm up to ≥ ``target_size`` tasks.

    The baseline is only measured on ``baseline_sizes`` (small graphs) to fit
    its growth law; its runtime at the target size is extrapolated from that
    fit rather than measured.  Every point is timed serially
    (:func:`~repro.bench.measure_sweep`).
    """
    new_config = SweepConfig(mode=mode, parameter=parameter, sizes=sizes, seed=seed)
    new_series = measure_sweep(new_config, NEW_ALGORITHM, label=f"{new_config.label}-scaling")
    baseline_fit: Optional[ComplexityFit] = None
    if baseline_sizes:
        baseline_config = SweepConfig(
            mode=mode, parameter=parameter, sizes=baseline_sizes, seed=seed
        )
        baseline_series = measure_sweep(
            baseline_config, OLD_ALGORITHM, label=f"{baseline_config.label}-baseline"
        )
        try:
            baseline_fit = baseline_series.fit()
        except Exception:
            baseline_fit = None
    return ScalingReport(new_series=new_series, baseline_fit=baseline_fit, target_size=target_size)


def format_scaling_report(report: ScalingReport) -> str:
    """Human-readable scaling report (Section VI claim)."""
    rows: List[List[str]] = [
        [str(point.size), f"{point.seconds:.3f}", str(point.makespan)]
        for point in report.new_series.completed_points()
    ]
    lines = ["Scaling study (incremental algorithm only)"]
    lines.append(format_table(["tasks", "seconds", "makespan"], rows))
    at_target = report.time_at_target()
    if at_target is not None:
        lines.append(
            f"incremental analysis at >= {report.target_size} tasks: {at_target:.2f} s "
            "(the paper claims 'reasonable execution time' beyond 8000 tasks)"
        )
    predicted = report.predicted_baseline_at_target()
    if predicted is not None:
        lines.append(
            f"baseline runtime extrapolated from its measured growth law at "
            f"{report.target_size} tasks: ~{predicted:.0f} s"
        )
    return "\n".join(lines)
