"""Benchmark harness reproducing the paper's evaluation (Figure 3, headline table, scaling claim)."""

from .ablation import (
    PerTaskRoundRobinArbiter,
    arbiter_ablation,
    format_arbiter_ablation,
    grouping_ablation,
)
from .figure3 import (
    PANELS,
    PAPER_EXPONENTS,
    format_panel_report,
    panel_config,
    run_all_panels,
    run_panel,
)
from .runner import (
    NEW_ALGORITHM,
    OLD_ALGORITHM,
    ComparisonResult,
    SweepConfig,
    measure_sweep,
    run_comparison,
    workload_sweep,
)
from .scaling import (
    PAPER_SCALING_TARGET,
    ScalingReport,
    format_scaling_report,
    run_scaling_study,
)
from .tables import (
    PAPER_HEADLINE,
    HeadlineRow,
    format_headline_table,
    run_headline_case,
    run_headline_table,
)

__all__ = [
    "SweepConfig",
    "ComparisonResult",
    "workload_sweep",
    "measure_sweep",
    "run_comparison",
    "NEW_ALGORITHM",
    "OLD_ALGORITHM",
    "PANELS",
    "PAPER_EXPONENTS",
    "panel_config",
    "run_panel",
    "run_all_panels",
    "format_panel_report",
    "HeadlineRow",
    "PAPER_HEADLINE",
    "run_headline_case",
    "run_headline_table",
    "format_headline_table",
    "ScalingReport",
    "PAPER_SCALING_TARGET",
    "run_scaling_study",
    "format_scaling_report",
    "PerTaskRoundRobinArbiter",
    "grouping_ablation",
    "arbiter_ablation",
    "format_arbiter_ablation",
]
