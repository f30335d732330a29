"""Delta re-analysis through the search stack: compile-once warm searches,
trace parity with the pre-kernel full-rebuild path, and latency-adaptive
speculation (PR 5 acceptance + satellites)."""

import pytest

from repro import AnalysisProblem
from repro.analysis import (
    SearchDriver,
    bracket_search,
    memory_sensitivity,
    minimal_horizon,
    wcet_sensitivity,
)
from repro.analysis.search import MAX_SPECULATION, adaptive_speculation
from repro.analysis.sensitivity import scale_memory_demand, scale_wcets
from repro.core import compilation_count
from repro.generators import fixed_ls_workload
from repro.service import EngineRuntime


@pytest.fixture
def problem():
    return fixed_ls_workload(24, 4, core_count=4, seed=17).to_problem(horizon=26_000)


def _legacy_rebuild_search(problem, kind, driver, max_factor=16.0, tolerance=0.05):
    """The pre-kernel probe builder: a full problem copy per factor."""
    scale = scale_memory_demand if kind == "memory" else scale_wcets
    suffix = "mem" if kind == "memory" else "wcet"

    def rebuild(factor):
        return AnalysisProblem(
            graph=scale(problem.graph, factor),
            mapping=problem.mapping,
            platform=problem.platform,
            arbiter=problem.arbiter,
            horizon=problem.horizon,
            name=f"{problem.name}-{suffix}-x{factor:.2f}",
            validate=False,
        )

    return bracket_search(
        rebuild, driver=driver, max_factor=max_factor, tolerance=tolerance
    )


class TestCompileOnceAcceptance:
    def test_warm_memory_sensitivity_compiles_base_exactly_once(self, problem):
        with EngineRuntime(max_workers=1) as runtime:
            driver = SearchDriver(runtime=runtime)
            before = compilation_count()
            result = memory_sensitivity(problem, driver=driver)
            assert compilation_count() - before == 1
            assert result.breaking_factor > 0

    def test_warm_wcet_sensitivity_compiles_base_exactly_once(self, problem):
        with EngineRuntime(max_workers=4) as runtime:
            driver = SearchDriver(runtime=runtime)
            before = compilation_count()
            result = wcet_sensitivity(problem, driver=driver)
            assert compilation_count() - before == 1
            assert len(result.probes) >= 2

    def test_serial_search_also_compiles_once(self, problem):
        before = compilation_count()
        result = memory_sensitivity(problem)
        assert compilation_count() - before == 1
        assert result.breaking_factor > 0

    def test_minimal_horizon_probe_is_an_overlay(self, problem):
        before = compilation_count()
        horizon = minimal_horizon(problem)
        assert compilation_count() - before == 1
        assert horizon > 0


class TestTraceParityWithLegacyPath:
    """Kernel-path searches replay exactly the pre-kernel probe sequence."""

    @pytest.mark.parametrize("kind", ["memory", "wcet"])
    def test_batched_overlay_search_matches_legacy_serial_rebuild(self, problem, kind):
        legacy = _legacy_rebuild_search(
            problem, kind, SearchDriver(batch=False)
        )
        search = memory_sensitivity if kind == "memory" else wcet_sensitivity
        with EngineRuntime(max_workers=1) as runtime:
            batched = search(problem, driver=SearchDriver(runtime=runtime))
        assert batched == legacy  # breaking factor, makespan AND probe trace

    def test_serial_overlay_search_matches_legacy_serial_rebuild(self, problem):
        legacy = _legacy_rebuild_search(problem, "memory", SearchDriver(batch=False))
        serial = memory_sensitivity(problem)
        assert serial == legacy

    def test_parallel_overlay_search_matches_legacy(self, problem):
        legacy = _legacy_rebuild_search(problem, "memory", SearchDriver(batch=False))
        parallel = memory_sensitivity(problem, driver=SearchDriver(max_workers=2))
        assert parallel == legacy


class TestLatencyAdaptiveSpeculation:
    def test_worker_rule_is_unchanged_without_latency(self):
        assert adaptive_speculation(1) == 1
        assert adaptive_speculation(4) == 3
        assert adaptive_speculation(8) == 4

    def test_cheap_probes_deepen_the_lookahead(self):
        base = adaptive_speculation(4)
        deeper = adaptive_speculation(4, latency_ewma_seconds=1e-6)
        assert deeper > base
        assert deeper <= MAX_SPECULATION

    def test_expensive_probes_stay_at_pool_saturation(self):
        assert adaptive_speculation(4, latency_ewma_seconds=2.0) == adaptive_speculation(4)

    def test_deepening_is_capped(self):
        assert adaptive_speculation(2, latency_ewma_seconds=1e-12) == MAX_SPECULATION

    def test_driver_repicks_speculation_from_runtime_ewma(self, problem):
        with EngineRuntime(max_workers=1) as runtime:
            driver = SearchDriver(runtime=runtime)
            initial = driver.speculation
            # a first search feeds the runtime's latency EWMA (tiny problems
            # analyse in microseconds, far below the generation overhead)
            memory_sensitivity(problem, driver=driver)
            assert runtime.stats().latency_ewma_seconds is not None
            driver.begin_search()
            assert driver.speculation > initial

    def test_lookahead_is_sized_from_its_own_algorithms_jobs(self, problem):
        """Cheap incremental jobs must not deepen a fixed-point search."""
        from repro.engine import AnalysisJob

        with EngineRuntime(max_workers=1) as runtime:
            runtime.run([AnalysisJob(problem, "incremental", index) for index in range(40)])
            fixedpoint = SearchDriver("fixedpoint", runtime=runtime)
            assert fixedpoint.speculation == adaptive_speculation(runtime.workers)
            assert runtime.algorithm_latency("fixedpoint") is None
            assert runtime.latency_ewma_seconds is not None  # the all-jobs figure
            incremental = runtime.algorithm_latency("incremental")
            assert incremental is not None
            own = SearchDriver("Incremental", runtime=runtime)
            assert own.speculation == adaptive_speculation(runtime.workers, incremental)

    def test_pinned_speculation_is_never_repicked(self, problem):
        with EngineRuntime(max_workers=1) as runtime:
            driver = SearchDriver(runtime=runtime, speculation=2)
            memory_sensitivity(problem, driver=driver)
            driver.begin_search()
            assert driver.speculation == 2

    def test_verdict_is_speculation_invariant(self, problem):
        results = []
        for speculation in (1, 3, MAX_SPECULATION):
            with EngineRuntime(max_workers=1) as runtime:
                driver = SearchDriver(runtime=runtime, speculation=speculation)
                results.append(memory_sensitivity(problem, driver=driver))
        assert results[0] == results[1] == results[2]
