"""Ablation studies of the design choices called out in DESIGN.md.

* A1 — per-core grouping (the "conservative hypothesis" of Section II-C):
  compare the makespan obtained with the per-core grouping of interfering
  tasks against a naive accounting that treats every interfering *task* as an
  independent initiator.  The naive accounting is implemented here as a
  wrapper arbiter so the analysis code stays untouched.
* A2 — arbitration policies: analyse the same workload under every registered
  arbiter and compare makespans and analysis runtimes.

Both ablations accept ``max_workers`` to fan their candidate problems out
through the batch engine (:func:`repro.engine.analyze_many`) instead of a
serial loop; timings then come from the in-worker wall clock of each
schedule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from ..arbiter import BusArbiter, RoundRobinArbiter
from ..core import AnalysisProblem, Schedule, analyze
from ..engine import analyze_many
from ..platform import MemoryBank
from ..viz.report import format_table

__all__ = [
    "PerTaskRoundRobinArbiter",
    "grouping_ablation",
    "arbiter_ablation",
    "format_arbiter_ablation",
]


class PerTaskRoundRobinArbiter(BusArbiter):
    """Round-robin bound *without* the per-core grouping hypothesis.

    The analysis groups competing tasks by core before calling the arbiter
    (each core can only issue one stream of requests).  To quantify what that
    grouping buys, this arbiter interprets each unit of competing demand as if
    it could come from an independent initiator: every destination access may
    then be delayed by *all* competing accesses, i.e. the bound degrades to
    the FIFO-like ``sum_k c_k`` whenever more initiators than cores could be
    involved.  It is intentionally pessimistic — the point of ablation A1.
    """

    name = "per-task-round-robin"

    def interference(
        self,
        dest_core: int,
        dest_accesses: int,
        competitors: Mapping[int, int],
        bank: MemoryBank,
    ) -> int:
        if dest_accesses == 0:
            return 0
        backlog = sum(demand for demand in competitors.values() if demand > 0)
        return backlog * bank.access_latency


@dataclass(frozen=True)
class GroupingAblationResult:
    """Makespans with and without the per-core grouping hypothesis."""

    grouped_makespan: int
    ungrouped_makespan: int

    @property
    def pessimism_ratio(self) -> float:
        """How much larger the ungrouped bound is (≥ 1.0 in practice)."""
        if self.grouped_makespan == 0:
            return 1.0
        return self.ungrouped_makespan / self.grouped_makespan


def grouping_ablation(
    problem: AnalysisProblem,
    *,
    algorithm: str = "incremental",
    max_workers: Optional[int] = None,
) -> GroupingAblationResult:
    """Quantify the benefit of the per-core grouping hypothesis on ``problem``.

    ``max_workers`` analyses the grouped and ungrouped candidates as one batch
    instead of two serial calls (identical makespans either way).
    """
    candidates = [
        problem.with_arbiter(RoundRobinArbiter()),
        problem.with_arbiter(PerTaskRoundRobinArbiter()),
    ]
    if max_workers is not None:
        grouped, ungrouped = analyze_many(candidates, algorithm, max_workers=max_workers)
    else:
        grouped, ungrouped = (analyze(candidate, algorithm) for candidate in candidates)
    return GroupingAblationResult(
        grouped_makespan=grouped.makespan,
        ungrouped_makespan=ungrouped.makespan,
    )


@dataclass(frozen=True)
class ArbiterAblationRow:
    """One arbiter's outcome on the ablation workload."""

    arbiter: str
    makespan: int
    total_interference: int
    analysis_seconds: float


def arbiter_ablation(
    problem: AnalysisProblem,
    arbiters: Mapping[str, BusArbiter],
    *,
    algorithm: str = "incremental",
    max_workers: Optional[int] = None,
) -> List[ArbiterAblationRow]:
    """Analyse ``problem`` under each arbiter of ``arbiters`` (name -> instance).

    ``max_workers`` fans every arbiter candidate out through the batch engine
    at once; per-row timings are then the in-worker analysis wall clock.
    """
    names = list(arbiters)
    candidates = [problem.with_arbiter(arbiters[name]) for name in names]
    if max_workers is not None:
        schedules = analyze_many(candidates, algorithm, max_workers=max_workers)
        timings = [schedule.stats.wall_time_seconds for schedule in schedules]
    else:
        schedules, timings = [], []
        for candidate in candidates:
            start = time.perf_counter()
            schedules.append(analyze(candidate, algorithm))
            timings.append(time.perf_counter() - start)
    return [
        ArbiterAblationRow(
            arbiter=name,
            makespan=schedule.makespan,
            total_interference=schedule.total_interference,
            analysis_seconds=elapsed,
        )
        for name, schedule, elapsed in zip(names, schedules, timings)
    ]


def format_arbiter_ablation(rows: List[ArbiterAblationRow]) -> str:
    """Render the arbiter ablation as a fixed-width table."""
    table = [
        [row.arbiter, str(row.makespan), str(row.total_interference), f"{row.analysis_seconds:.3f}"]
        for row in rows
    ]
    return format_table(["arbiter", "makespan", "total interference", "analysis (s)"], table)
