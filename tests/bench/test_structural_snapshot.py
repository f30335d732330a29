"""The structural probe measurement stays truthful.

Runs ``measure_structural`` at a micro size: the three modes (cold rebuild,
kernel patch, warm resume) must agree bit-identically — checked inside the
function — and the reported counters must be internally consistent.
"""

import time

from repro.analysis import edge_grid, remap_grid
from repro.core import PatchedProblem, analyze_incremental, compile_problem, patch_problem
from repro.errors import ReproError
from repro.generators import fixed_ls_workload


def _best_of(repeats, fn):
    """(best wall-clock seconds, last result) over ``repeats`` runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def measure_structural(problem, *, repeats, probe_limit):
    """Structural grid throughput: cold rebuild vs kernel patch vs warm resume."""
    kernel = compile_problem(problem)
    parent_schedule = analyze_incremental(problem)
    grid = []
    for delta in remap_grid(kernel) + edge_grid(kernel, limit=probe_limit):
        try:
            patch_problem(kernel, delta)
        except ReproError:
            continue  # e.g. a remap that would create an ordering cycle
        grid.append(delta)
        if len(grid) >= probe_limit:
            break

    def run_cold():
        return [
            analyze_incremental(PatchedProblem(kernel, delta).materialize())
            for delta in grid
        ]

    def run_patch():
        return [
            analyze_incremental(PatchedProblem(kernel, delta)) for delta in grid
        ]

    def run_warm():
        return [
            analyze_incremental(
                PatchedProblem(kernel, delta, parent_schedule=parent_schedule)
            )
            for delta in grid
        ]

    cold_seconds, cold_schedules = _best_of(repeats, run_cold)
    patch_seconds, patch_schedules = _best_of(repeats, run_patch)
    warm_seconds, warm_schedules = _best_of(repeats, run_warm)
    for cold, patch, warm in zip(cold_schedules, patch_schedules, warm_schedules):
        assert (
            cold.to_dict()["entries"]
            == patch.to_dict()["entries"]
            == warm.to_dict()["entries"]
        ), "structural probe verdicts diverged across cold/patch/warm"
    probes = len(grid)
    warm_hits = sum(s.stats.warm_start_hits for s in warm_schedules)
    return {
        "probes": probes,
        "warm_start_hits": warm_hits,
        "cold_seconds": cold_seconds,
        "patch_seconds": patch_seconds,
        "warm_seconds": warm_seconds,
        "cold_probes_per_second": probes / cold_seconds if cold_seconds else None,
        "patch_probes_per_second": probes / patch_seconds if patch_seconds else None,
        "warm_probes_per_second": probes / warm_seconds if warm_seconds else None,
        "speedup_patch_vs_cold": (
            cold_seconds / patch_seconds if patch_seconds else None
        ),
        "speedup_warm_vs_cold": (
            cold_seconds / warm_seconds if warm_seconds else None
        ),
        "improved": warm_seconds < cold_seconds,
    }


def test_measure_structural_reports_consistent_counters():
    problem = fixed_ls_workload(24, 4, core_count=4, seed=7).to_problem()
    report = measure_structural(problem, repeats=1, probe_limit=8)
    assert report["probes"] == 8
    assert 0 <= report["warm_start_hits"] <= report["probes"]
    for key in ("cold_seconds", "patch_seconds", "warm_seconds"):
        assert report[key] > 0.0
    assert report["speedup_warm_vs_cold"] == (
        report["cold_seconds"] / report["warm_seconds"]
    )
    assert report["improved"] == (report["warm_seconds"] < report["cold_seconds"])
