"""Tests for the benchmark harness (sweeps, comparisons, headline, ablation)."""

import pytest

from repro.bench import (
    PANELS,
    PAPER_EXPONENTS,
    PAPER_HEADLINE,
    ComparisonResult,
    PerTaskRoundRobinArbiter,
    SweepConfig,
    arbiter_ablation,
    format_arbiter_ablation,
    format_headline_table,
    format_panel_report,
    grouping_ablation,
    measure_sweep,
    panel_config,
    run_comparison,
    run_headline_case,
    run_scaling_study,
    workload_sweep,
)
from repro import FifoArbiter, RoundRobinArbiter
from repro.errors import GenerationError
from repro.generators import fixed_ls_workload


class TestSweepConfig:
    def test_label_and_normalization(self):
        config = SweepConfig(mode="ls", parameter=64, sizes=(128, 64))
        assert config.label == "LS64"
        assert config.sizes == (64, 128)

    def test_invalid_mode_rejected(self):
        with pytest.raises(GenerationError):
            SweepConfig(mode="XX", parameter=4, sizes=(16,))

    def test_empty_sizes_rejected(self):
        with pytest.raises(GenerationError):
            SweepConfig(mode="LS", parameter=4, sizes=())

    def test_workload_sweep_sizes_and_determinism(self):
        config = SweepConfig(mode="LS", parameter=4, sizes=(16, 24), core_count=4, seed=9)
        problems_a = list(workload_sweep(config))
        problems_b = list(workload_sweep(config))
        assert [size for size, _ in problems_a] == [16, 24]
        for (_, first), (_, second) in zip(problems_a, problems_b):
            assert [t.wcet for t in first.graph] == [t.wcet for t in second.graph]

    def test_panel_configs_cover_the_paper(self):
        assert set(PANELS) == {"LS4", "NL4", "LS16", "NL16", "LS64", "NL64"}
        assert set(PAPER_EXPONENTS) == set(PANELS)
        for label in PANELS:
            config = panel_config(label, profile="quick")
            assert config.label == label
            assert min(config.sizes) >= config.parameter


class TestComparison:
    @pytest.fixture(scope="class")
    def result(self) -> ComparisonResult:
        config = SweepConfig(mode="LS", parameter=4, sizes=(16, 32), core_count=4, seed=3)
        return run_comparison(config)

    def test_both_series_measured(self, result):
        assert [point.size for point in result.new_series.points] == [16, 32]
        assert [point.size for point in result.old_series.points] == [16, 32]

    def test_speedups_and_rows(self, result):
        speedups = dict(result.speedups())
        assert set(speedups) == {16, 32}
        assert all(value > 0 for value in speedups.values())
        rows = result.rows()
        assert len(rows) == 2
        assert rows[0][0] == "16"

    def test_report_formatting(self, result):
        report = format_panel_report(result)
        assert "LS4" in report
        assert "speedup" in report

    def test_baseline_can_be_restricted(self):
        config = SweepConfig(mode="NL", parameter=4, sizes=(16, 32), core_count=4, seed=4)
        result = run_comparison(config, baseline_sizes=(16,))
        assert [point.size for point in result.old_series.points] == [16]
        assert [point.size for point in result.new_series.points] == [16, 32]


class TestSerialTiming:
    """Every harness point is timed serially, in this process."""

    def test_sweep_honours_the_timeout_cut_off(self):
        config = SweepConfig(
            mode="LS", parameter=4, sizes=(16, 24, 32), core_count=4, seed=5,
            timeout_seconds=0.0,
        )
        series = measure_sweep(config, "incremental", label="t")
        assert [point.timed_out for point in series.points] == [False, True, True]
        assert series.points[0].makespan > 0

    def test_sweep_runs_every_point_once_per_repetition(self):
        from repro.core.analyzer import analyze, register_algorithm

        calls = []

        def _counting(problem):
            calls.append(problem.name)
            return analyze(problem, "incremental")

        register_algorithm("bench-counting", _counting, overwrite=True)
        config = SweepConfig(
            mode="LS", parameter=4, sizes=(16, 24), core_count=4, seed=5, repetitions=3
        )
        series = measure_sweep(config, "bench-counting", label="t")
        assert [point.size for point in series.points] == [16, 24]
        assert len(calls) == 6 and len(set(calls)) == 2
        for point, (_, problem) in zip(series.points, workload_sweep(config)):
            assert point.makespan == analyze(problem, "incremental").makespan

    def test_pooled_timing_options_are_retired(self):
        import repro.bench

        config = SweepConfig(mode="LS", parameter=4, sizes=(16,), core_count=4, seed=3)
        assert not hasattr(repro.bench, "measure_algorithm_parallel")
        for option in ("max_workers", "cache", "runtime"):
            with pytest.raises(TypeError, match=option):
                run_comparison(config, **{option: 2})
            with pytest.raises(TypeError, match=option):
                measure_sweep(config, "incremental", label="t", **{option: 2})
        for option in ("max_workers", "runtime"):
            with pytest.raises(TypeError, match=option):
                run_scaling_study(**{option: 2})


class TestHeadline:
    def test_headline_case_small_size(self):
        row = run_headline_case("LS64", task_count=64, seed=1)
        assert row.task_count == 64
        assert row.new_seconds > 0 and row.old_seconds > 0
        assert row.speedup > 0
        assert row.new_makespan > 0

    def test_paper_reference_values_present(self):
        assert PAPER_HEADLINE["NL64"][0] == 384
        assert PAPER_HEADLINE["LS64"][3] == 270.0

    def test_unknown_case_rejected(self):
        with pytest.raises(KeyError):
            run_headline_case("LS4")

    def test_table_formatting(self):
        rows = [run_headline_case("NL64", task_count=64, seed=1)]
        table = format_headline_table(rows)
        assert "NL64" in table
        assert "paper" in table


class TestAblations:
    def test_grouping_ablation_is_never_better_ungrouped(self):
        problem = fixed_ls_workload(32, 8, core_count=8, seed=5).to_problem()
        result = grouping_ablation(problem)
        assert result.ungrouped_makespan >= result.grouped_makespan
        assert result.pessimism_ratio >= 1.0

    def test_per_task_arbiter_is_fifo_like(self):
        from repro.platform import MemoryBank

        bank = MemoryBank(identifier=0)
        arbiter = PerTaskRoundRobinArbiter()
        assert arbiter.interference(0, 4, {1: 10, 2: 5}, bank) == 15
        assert arbiter.interference(0, 0, {1: 10}, bank) == 0

    def test_arbiter_ablation_rows(self):
        problem = fixed_ls_workload(24, 4, core_count=4, seed=6).to_problem()
        rows = arbiter_ablation(problem, {"rr": RoundRobinArbiter(), "fifo": FifoArbiter()})
        assert [row.arbiter for row in rows] == ["rr", "fifo"]
        by_name = {row.arbiter: row for row in rows}
        # FIFO is never less pessimistic than round-robin
        assert by_name["fifo"].makespan >= by_name["rr"].makespan
        table = format_arbiter_ablation(rows)
        assert "fifo" in table and "makespan" in table

    def test_batched_arbiter_ablation_matches_serial(self):
        problem = fixed_ls_workload(24, 4, core_count=4, seed=6).to_problem()
        arbiters = {"rr": RoundRobinArbiter(), "fifo": FifoArbiter()}
        serial = arbiter_ablation(problem, arbiters)
        batched = arbiter_ablation(problem, arbiters, max_workers=2)
        assert [row.arbiter for row in batched] == [row.arbiter for row in serial]
        assert [row.makespan for row in batched] == [row.makespan for row in serial]
        assert [row.total_interference for row in batched] == [
            row.total_interference for row in serial
        ]
        assert all(row.analysis_seconds >= 0.0 for row in batched)

    def test_batched_grouping_ablation_matches_serial(self):
        problem = fixed_ls_workload(32, 8, core_count=8, seed=5).to_problem()
        serial = grouping_ablation(problem)
        batched = grouping_ablation(problem, max_workers=2)
        assert batched == serial
