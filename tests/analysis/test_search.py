"""Tests for the batch-aware design-space search layer.

Acceptance tests of PR 2: batched sensitivity / minimal-horizon searches must
return verdicts identical to the serial implementations (including the probe
trace), and a warm-cache repeat of a whole search must perform zero analyzer
invocations (proven through the cache's hit/miss counters).
"""

from __future__ import annotations

import math
import signal
from typing import List

import pytest

from repro.analysis import (
    SearchDriver,
    SearchProgressEvent,
    adaptive_speculation,
    interference_cost,
    memory_sensitivity,
    minimal_horizon,
    minimal_horizon_many,
    scale_memory_demand,
    wcet_sensitivity,
)
from repro.analysis.search import MAX_SPECULATION, _bisection_ladder, _remaining_levels
from repro.analysis.sensitivity import SensitivityResult
from repro.errors import AnalysisError
from repro.examples_data import figure1_problem
from repro.generators import fixed_ls_workload


def _workload_problem(seed: int = 1, horizon: int = None):
    problem = fixed_ls_workload(24, 4, core_count=4, seed=seed).to_problem()
    return problem.with_horizon(horizon) if horizon is not None else problem


def _within(seconds: int, call):
    """Run ``call``, raising TimeoutError if it is still running after ``seconds``."""

    def _expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(seconds)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestBatchedSerialEquivalence:
    @pytest.mark.parametrize("speculation", [0, 1, 2, 3])
    def test_memory_sensitivity_identical_to_serial(self, speculation):
        problem = figure1_problem().with_horizon(12)
        serial = memory_sensitivity(problem, max_factor=16.0, tolerance=0.1)
        driver = SearchDriver(max_workers=1, speculation=speculation)
        batched = memory_sensitivity(problem, max_factor=16.0, tolerance=0.1, driver=driver)
        assert batched == serial  # breaking factor, makespan AND probe trace

    def test_wcet_sensitivity_identical_to_serial(self):
        problem = figure1_problem().with_horizon(40)
        serial = wcet_sensitivity(problem, max_factor=16.0, tolerance=0.05)
        batched = wcet_sensitivity(
            problem, max_factor=16.0, tolerance=0.05, driver=SearchDriver(max_workers=1)
        )
        assert batched == serial

    def test_equivalence_with_real_process_pool(self):
        problem = _workload_problem(seed=3)
        horizon = int(minimal_horizon(problem) * 1.2)
        problem = problem.with_horizon(horizon)
        serial = memory_sensitivity(problem, max_factor=8.0, tolerance=0.25)
        batched = memory_sensitivity(
            problem, max_factor=8.0, tolerance=0.25, driver=SearchDriver(max_workers=2)
        )
        assert batched == serial

    def test_infeasible_baseline_identical(self):
        problem = figure1_problem().with_horizon(6)
        serial = memory_sensitivity(problem, tolerance=0.5)
        batched = memory_sensitivity(problem, tolerance=0.5, driver=SearchDriver(max_workers=1))
        assert serial.breaking_factor == batched.breaking_factor == 0.0
        assert batched == serial

    def test_saturating_at_max_factor_identical(self):
        problem = figure1_problem().with_horizon(10_000)
        serial = memory_sensitivity(problem, max_factor=4.0, tolerance=0.5)
        batched = memory_sensitivity(
            problem, max_factor=4.0, tolerance=0.5, driver=SearchDriver(max_workers=1)
        )
        assert serial.breaking_factor == batched.breaking_factor == 4.0
        assert batched == serial

    def test_minimal_horizon_identical(self):
        problem = _workload_problem(seed=2)
        assert minimal_horizon(problem) == minimal_horizon(
            problem, driver=SearchDriver(max_workers=1)
        )

    def test_minimal_horizon_many_identical(self):
        problems = [_workload_problem(seed=seed) for seed in range(4)]
        serial = minimal_horizon_many(problems)
        batched = minimal_horizon_many(problems, driver=SearchDriver(max_workers=2))
        assert serial == batched
        assert serial == [minimal_horizon(problem) for problem in problems]

    def test_interference_cost_identical(self):
        problem = figure1_problem()
        serial = interference_cost(problem)
        batched = interference_cost(problem, driver=SearchDriver(max_workers=1))
        assert serial == batched
        assert batched["makespan_with_interference"] == 7.0
        assert batched["makespan_without_interference"] == 6.0


class TestWarmCache:
    def test_warm_repeat_performs_zero_analyzer_invocations(self):
        problem = figure1_problem().with_horizon(12)
        driver = SearchDriver(max_workers=1, speculation=2)
        cold = memory_sensitivity(problem, max_factor=16.0, tolerance=0.1, driver=driver)
        assert driver.total_computed > 0
        misses_after_cold = driver.stats.misses
        computed_after_cold = driver.total_computed
        warm = memory_sensitivity(problem, max_factor=16.0, tolerance=0.1, driver=driver)
        assert warm == cold
        assert driver.total_computed == computed_after_cold  # zero analyzer invocations
        assert driver.stats.misses == misses_after_cold  # every lookup hit
        assert driver.stats.hits > 0

    def test_neighbouring_searches_share_probe_results(self):
        """A tighter-tolerance re-search reuses the coarse search's probes."""
        problem = figure1_problem().with_horizon(12)
        driver = SearchDriver(max_workers=1, speculation=0)
        memory_sensitivity(problem, max_factor=16.0, tolerance=0.5, driver=driver)
        computed_coarse = driver.total_computed
        fine = memory_sensitivity(problem, max_factor=16.0, tolerance=0.1, driver=driver)
        # the coarse probes (baseline, ceiling, first bisection levels) all hit
        assert driver.stats.hits >= computed_coarse
        assert fine == memory_sensitivity(problem, max_factor=16.0, tolerance=0.1)

    def test_warm_minimal_horizon_many(self):
        problems = [_workload_problem(seed=seed) for seed in range(3)]
        driver = SearchDriver(max_workers=1)
        first = minimal_horizon_many(problems, driver=driver)
        computed = driver.total_computed
        second = minimal_horizon_many(problems, driver=driver)
        assert first == second
        assert driver.total_computed == computed


class TestDriver:
    def test_progress_events_stream_generations(self):
        events: List[SearchProgressEvent] = []
        driver = SearchDriver(max_workers=1, speculation=2, progress=events.append)
        memory_sensitivity(figure1_problem().with_horizon(12), driver=driver)
        assert events
        assert [event.generation for event in events] == list(range(1, len(events) + 1))
        assert events[-1].total_probes == sum(event.probes for event in events)
        assert all(event.elapsed_seconds >= 0.0 for event in events)

    def test_progress_resets_between_searches(self):
        events: List[SearchProgressEvent] = []
        driver = SearchDriver(max_workers=1, progress=events.append)
        problem = figure1_problem().with_horizon(12)
        memory_sensitivity(problem, driver=driver)
        first_search = len(events)
        wcet_sensitivity(problem.with_horizon(40), driver=driver)
        assert events[first_search].generation == 1  # counter restarted

    def test_progress_resets_for_every_search_entry_point(self):
        """minimal_horizon(_many) and interference_cost begin fresh searches too."""
        events: List[SearchProgressEvent] = []
        driver = SearchDriver(max_workers=1, progress=events.append)
        problem = figure1_problem().with_horizon(12)
        memory_sensitivity(problem, driver=driver)  # leaves a nonzero generation counter
        for run_search in (
            lambda: minimal_horizon(problem, driver=driver),
            lambda: minimal_horizon_many([problem], driver=driver),
            lambda: interference_cost(problem, driver=driver),
        ):
            events.clear()
            run_search()
            assert [event.generation for event in events] == list(range(1, len(events) + 1))

    def test_eta_estimate_available_mid_search(self):
        events: List[SearchProgressEvent] = []
        driver = SearchDriver(max_workers=1, speculation=1, progress=events.append)
        memory_sensitivity(figure1_problem().with_horizon(12), driver=driver)
        assert any(event.eta_seconds() is not None for event in events)

    def test_serial_driver_forces_no_speculation_and_no_cache(self):
        driver = SearchDriver(batch=False, speculation=5)
        assert driver.speculation == 0
        assert driver.cache is None
        assert driver.stats is None

    def test_negative_speculation_rejected(self):
        with pytest.raises(AnalysisError):
            SearchDriver(speculation=-1)

    def test_speculation_above_the_ceiling_rejected(self):
        """Each level doubles a generation's probes: 30 would ask for ~1e9."""
        assert SearchDriver(max_workers=1, speculation=MAX_SPECULATION).speculation == 8
        with pytest.raises(AnalysisError, match="speculation"):
            SearchDriver(speculation=MAX_SPECULATION + 1)

    def test_retired_chunksize_parameter_is_not_accepted(self):
        with pytest.raises(TypeError, match="chunksize"):
            SearchDriver(chunksize=1)

    def test_batched_search_leaves_no_worker_processes(self):
        import multiprocessing

        problem = figure1_problem().with_horizon(12)
        driver = SearchDriver(max_workers=2)
        memory_sensitivity(problem, max_factor=16.0, tolerance=0.1, driver=driver)
        assert driver.total_computed > 0
        assert multiprocessing.active_children() == []

    def test_invalid_bracket_parameters_rejected(self):
        problem = figure1_problem().with_horizon(12)
        with pytest.raises(AnalysisError):
            memory_sensitivity(problem, max_factor=1.0)
        with pytest.raises(AnalysisError):
            memory_sensitivity(problem, tolerance=0.0)
        for max_factor in (float("nan"), float("inf")):
            with pytest.raises(AnalysisError, match="max_factor"):
                memory_sensitivity(problem, max_factor=max_factor)
        with pytest.raises(AnalysisError, match="tolerance"):
            memory_sensitivity(problem, tolerance=float("nan"))

    def test_sensitivity_requires_horizon_with_driver_too(self):
        with pytest.raises(AnalysisError):
            memory_sensitivity(figure1_problem(), driver=SearchDriver(max_workers=1))

    def test_conflicting_explicit_algorithm_rejected(self):
        """algorithm= and driver= must agree — no silent preference."""
        problem = figure1_problem().with_horizon(12)
        driver = SearchDriver("incremental", max_workers=1)
        with pytest.raises(AnalysisError, match="conflicts"):
            memory_sensitivity(problem, algorithm="fixedpoint", driver=driver)
        with pytest.raises(AnalysisError, match="conflicts"):
            minimal_horizon(problem, algorithm="fixedpoint", driver=driver)
        with pytest.raises(AnalysisError, match="conflicts"):
            interference_cost(problem, algorithm="fixedpoint", driver=driver)

    def test_matching_explicit_algorithm_accepted_with_driver(self):
        problem = figure1_problem().with_horizon(12)
        driver = SearchDriver("fixedpoint", max_workers=1)
        result = memory_sensitivity(problem, algorithm="fixedpoint", driver=driver)
        assert result == memory_sensitivity(problem, algorithm="fixedpoint")

    def test_final_generation_reports_zero_remaining(self):
        """The ETA estimate converges: the last bisection generation sees 0 left."""
        events: List[SearchProgressEvent] = []
        driver = SearchDriver(max_workers=1, speculation=2, progress=events.append)
        memory_sensitivity(figure1_problem().with_horizon(12), max_factor=16.0, driver=driver)
        remaining = [event.remaining_generations for event in events]
        assert remaining[-1] == 0
        # estimates never increase as the search progresses
        assert all(a >= b for a, b in zip(remaining, remaining[1:]))

    def test_result_to_dict_round_trips_probes(self):
        result = memory_sensitivity(figure1_problem().with_horizon(12))
        record = result.to_dict()
        assert record["breaking_factor"] == result.breaking_factor
        assert record["probes"] == [[factor, ok] for factor, ok in result.probes]
        assert isinstance(result, SensitivityResult)


class TestAdaptiveSpeculation:
    """Satellite: the default lookahead adapts to the worker count."""

    @pytest.mark.parametrize(
        "workers,expected",
        [(1, 1), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4), (16, 5)],
    )
    def test_smallest_lookahead_saturating_the_workers(self, workers, expected):
        assert adaptive_speculation(workers) == expected
        # a generation of `expected` levels carries up to 2**expected - 1
        # ladder probes: enough to keep every worker busy
        assert 2**expected - 1 >= workers

    def test_driver_defaults_speculation_from_max_workers(self):
        assert SearchDriver(max_workers=1).speculation == 1
        assert SearchDriver(max_workers=4).speculation == 3
        assert SearchDriver(max_workers=8).speculation == 4

    def test_driver_defaults_speculation_from_runtime_workers(self):
        from repro.service import EngineRuntime

        with EngineRuntime(max_workers=4) as runtime:
            assert SearchDriver(runtime=runtime).speculation == 3
        with EngineRuntime(max_workers=1) as runtime:
            assert SearchDriver(runtime=runtime).speculation == 1

    def test_explicit_speculation_still_pins_the_lookahead(self):
        assert SearchDriver(max_workers=8, speculation=0).speculation == 0
        assert SearchDriver(max_workers=1, speculation=5).speculation == 5

    def test_serial_driver_rejects_runtime(self):
        from repro.service import EngineRuntime

        with EngineRuntime(max_workers=1) as runtime:
            with pytest.raises(AnalysisError, match="serial"):
                SearchDriver(batch=False, runtime=runtime)

    def test_adaptive_driver_sizes_lookahead_without_a_cache_scan(
        self, tmp_path, monkeypatch
    ):
        """Reading the latency EWMA must not count the persistent store's rows."""
        from repro.engine import ResultCache, analyze_many
        from repro.service import EngineRuntime

        with EngineRuntime(max_workers=1, cache=tmp_path / "cache") as runtime:
            analyze_many([_workload_problem(seed) for seed in range(2)], runtime=runtime)
            latency = runtime.latency_ewma_seconds
            assert latency is not None and latency > 0

            def _no_scan(self):
                raise AssertionError("ResultCache.stats_dict was called")

            monkeypatch.setattr(ResultCache, "stats_dict", _no_scan)
            driver = SearchDriver(runtime=runtime)  # adaptive speculation
            driver.begin_search()
            assert driver.speculation == adaptive_speculation(1, latency)

    def test_adaptive_default_verdicts_identical_to_serial(self):
        problem = figure1_problem().with_horizon(12)
        serial = memory_sensitivity(problem, max_factor=16.0, tolerance=0.1)
        for workers in (1, 2, 4):
            driver = SearchDriver(max_workers=workers)  # adaptive speculation
            assert memory_sensitivity(
                problem, max_factor=16.0, tolerance=0.1, driver=driver
            ) == serial


class TestTermination:
    """Bisection stops at float resolution, whatever the tolerance."""

    @staticmethod
    def _problem():
        problem = fixed_ls_workload(16, 4, core_count=4, seed=1).to_problem()
        return problem.with_horizon(int(minimal_horizon(problem) * 1.5))

    @pytest.mark.parametrize("speculation", [None, 3])
    def test_tolerance_below_float_resolution_terminates(self, speculation):
        problem = self._problem()
        reference = memory_sensitivity(problem, max_factor=16.0, tolerance=1e-9)
        events: List[SearchProgressEvent] = []
        driver = (
            None
            if speculation is None
            else SearchDriver(max_workers=1, speculation=speculation, progress=events.append)
        )
        result = _within(
            30,
            lambda: memory_sensitivity(
                problem, max_factor=16.0, tolerance=1e-300, driver=driver
            ),
        )
        assert result.probes[: len(reference.probes)] == reference.probes
        assert len(result.probes) > len(reference.probes)
        factors = [factor for factor, _ in result.probes]
        assert len(set(factors)) == len(factors)  # no probe is repeated
        if driver is not None:
            assert result == memory_sensitivity(problem, max_factor=16.0, tolerance=1e-300)
            assert events[-1].remaining_generations == 0

    def test_wcet_search_below_float_resolution_terminates(self):
        problem = self._problem()
        reference = wcet_sensitivity(problem, max_factor=16.0, tolerance=1e-9)
        result = _within(
            30, lambda: wcet_sensitivity(problem, max_factor=16.0, tolerance=1e-300)
        )
        assert result.probes[: len(reference.probes)] == reference.probes
        assert len(result.probes) > len(reference.probes)
        factors = [factor for factor, _ in result.probes]
        assert len(set(factors)) == len(factors)

    def test_ladder_prunes_where_the_midpoint_leaves_the_bracket(self):
        """The speculative ladder stops by the search loop's own rule."""
        one_ulp = math.nextafter(1.0, 2.0)
        two_ulps = math.nextafter(one_ulp, 2.0)
        assert _bisection_ladder(1.0, one_ulp, 3, 1e-300) == []
        assert _bisection_ladder(1.0, two_ulps, 3, 1e-300) == [one_ulp]
        assert _bisection_ladder(1.0, 2.0, 2, 0.1) == [1.5, 1.25, 1.75]

    def test_remaining_levels_are_bounded_by_float_resolution(self):
        one_ulp = math.nextafter(1.0, 2.0)
        assert _remaining_levels(1.0, one_ulp, 1e-300) == 0
        assert _remaining_levels(1.0, math.nextafter(one_ulp, 2.0), 1e-300) == 1
        assert _remaining_levels(1.0, 2.0, 0.1) == 4
        # a double carries 53 significant bits: the bracket [1, 16] runs out
        # of midpoints long before a 1e-300 tolerance would be met
        assert _remaining_levels(1.0, 16.0, 1e-300) <= 64


class TestDemandRoundingRegression:
    def test_small_nonzero_demand_never_drops_to_zero(self):
        """int(round(count * factor)) must not silently erase a bank demand."""
        graph = figure1_problem().graph
        scaled = scale_memory_demand(graph, 0.1)  # e.g. 3 accesses * 0.1 -> 1, not 0
        for task in graph:
            for bank, count in task.demand.items():
                if count > 0:
                    assert scaled.task(task.name).demand[bank] >= 1

    def test_zero_factor_still_zeroes_demand(self):
        scaled = scale_memory_demand(figure1_problem().graph, 0.0)
        assert scaled.total_accesses == 0

    def test_zero_demand_stays_zero(self):
        graph = figure1_problem().graph
        scaled = scale_memory_demand(graph, 0.5)
        for task in graph:
            for bank, count in task.demand.items():
                if count == 0:
                    assert scaled.task(task.name).demand[bank] == 0

    def test_sub_unity_sensitivity_not_optimistic(self):
        """The fixed scaling keeps sub-unity probes pessimistic (demand >= 1)."""
        graph = figure1_problem().graph
        scaled = scale_memory_demand(graph, 0.01)
        assert scaled.total_accesses >= sum(
            1 for task in graph for _, count in task.demand.items() if count > 0
        )
