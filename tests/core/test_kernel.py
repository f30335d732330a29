"""Unit tests of the compiled problem kernel and parameter overlays."""

import pytest

from repro import AnalysisProblem, TaskGraphBuilder
from repro.core import (
    CompiledProblem,
    OverlayProblem,
    ParamOverlay,
    analyze,
    analyze_incremental,
    compilation_count,
    compile_problem,
)
from repro.core.kernel import KEEP_HORIZON
from repro.errors import AnalysisError, MappingError, ModelError
from repro.generators import (
    ChainsConfig,
    ForkJoinConfig,
    SeriesParallelConfig,
    fixed_ls_workload,
    fixed_nl_workload,
    generate_chains,
    generate_fork_join,
    generate_series_parallel,
)
from repro.model import MemoryDemand, Mapping, Task, TaskGraph
from repro.platform import quad_core_single_bank

from .reference_impl import reference_incremental


def diamond():
    builder = TaskGraphBuilder("diamond")
    builder.task("src", wcet=10, accesses=4, core=0)
    builder.task("left", wcet=20, accesses=6, core=0)
    builder.task("right", wcet=15, accesses=8, core=1)
    builder.task("sink", wcet=10, accesses=2, core=1)
    builder.edge("src", "left")
    builder.edge("src", "right")
    builder.edge("left", "sink")
    builder.edge("right", "sink")
    graph, mapping = builder.build_both()
    return AnalysisProblem(graph, mapping, quad_core_single_bank(), horizon=200)


#: generated problems with several tasks per core, for the adjacency checks
WORKLOADS = {
    "layer-size": lambda: fixed_ls_workload(48, 4, core_count=4, seed=1).to_problem(),
    "layer-count": lambda: fixed_nl_workload(48, 6, core_count=5, seed=2).to_problem(),
    "chains": lambda: generate_chains(
        ChainsConfig(chains=4, length=6, core_count=3, seed=3)
    ).to_problem(),
    "fork-join": lambda: generate_fork_join(
        ForkJoinConfig(sections=3, width=5, core_count=4, seed=4)
    ).to_problem(),
    "series-parallel": lambda: generate_series_parallel(
        SeriesParallelConfig(target_tasks=40, core_count=6, seed=5)
    ).to_problem(),
}


class TestCompiledProblem:
    def test_index_arrays_mirror_the_graph(self):
        problem = diamond()
        kernel = compile_problem(problem)
        assert kernel.names == ("src", "left", "right", "sink")
        assert kernel.wcet == (10, 20, 15, 10)
        assert kernel.core_of == (0, 0, 1, 1)
        assert [d.total for d in kernel.demand] == [4, 6, 8, 2]
        assert kernel.index_of["right"] == 2

    def test_effective_adjacency_includes_mapping_edges(self):
        problem = diamond()
        kernel = compile_problem(problem)
        left = kernel.index_of["left"]
        # 'left' depends on 'src' via the graph AND as its core predecessor:
        # the kernel deduplicates the merged edge
        assert kernel.predecessors_of(left) == (kernel.index_of["src"],)
        sink = kernel.index_of["sink"]
        # 'sink' waits for left (graph) and right (graph + same-core order)
        assert set(kernel.predecessors_of(sink)) == {
            kernel.index_of["left"],
            kernel.index_of["right"],
        }
        assert sink in kernel.dependents_of(kernel.index_of["right"])

    def test_topological_order_matches_reference_tie_breaking(self):
        problem = diamond()
        kernel = compile_problem(problem)
        names = [kernel.names[i] for i in kernel.topo_order]
        assert names == ["src", "left", "right", "sink"]
        assert kernel.cyclic_tasks == ()

    def test_core_orders_are_index_arrays(self):
        kernel = compile_problem(diamond())
        assert kernel.core_ids == (0, 1)
        orders = {
            core: [kernel.names[i] for i in order]
            for core, order in zip(kernel.core_ids, kernel.core_orders)
        }
        assert orders == {0: ["src", "left"], 1: ["right", "sink"]}

    def test_bank_tables(self):
        kernel = compile_problem(diamond())
        assert 0 in kernel.bank_ids
        assert kernel.reserved_banks == frozenset()
        assert kernel.bank_tasks[0] == (0, 1, 2, 3)

    def test_contradictory_core_order_is_flagged_not_raised(self):
        graph = TaskGraph("bad")
        from repro.model import Task

        graph.add_task(Task(name="a", wcet=5))
        graph.add_task(Task(name="b", wcet=5))
        graph.add_dependency("a", "b")
        mapping = Mapping({0: ["b", "a"]})  # order contradicts the dependency
        problem = AnalysisProblem(
            graph, mapping, quad_core_single_bank(), validate=False
        )
        kernel = compile_problem(problem)
        assert set(kernel.cyclic_tasks) == {"a", "b"}
        # fixedpoint raises the historical MappingError; incremental reports
        # an unschedulable verdict instead — exactly the pre-kernel contract
        with pytest.raises(MappingError):
            analyze(problem, "fixedpoint")
        schedule = analyze(problem, "incremental")
        assert not schedule.schedulable

    def test_compilation_counter_advances(self):
        before = compilation_count()
        compile_problem(diamond())
        assert compilation_count() == before + 1

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_merged_predecessors_match_per_task_core_queries(self, workload):
        """The one-pass core-predecessor table gives the per-task answers."""
        problem = WORKLOADS[workload]()
        kernel = compile_problem(problem)
        assert kernel.core_ids == tuple(problem.mapping.cores())
        for index, name in enumerate(kernel.names):
            expected = [kernel.index_of[pred] for pred in problem.graph.predecessors(name)]
            core_pred = problem.mapping.predecessor_on_core(name)
            if core_pred is not None and kernel.index_of[core_pred] not in expected:
                expected.append(kernel.index_of[core_pred])
            assert kernel.predecessors_of(index) == tuple(expected), name

    def test_core_tables_follow_core_number_not_assignment_order(self):
        graph = TaskGraph("scattered")
        for name in ("a", "b", "c", "d", "e"):
            graph.add_task(Task(name=name, wcet=5))
        graph.add_dependency("a", "d")
        mapping = Mapping()
        for name, core in (("c", 3), ("a", 0), ("e", 3), ("b", 1), ("d", 0)):
            mapping.assign(name, core)
        kernel = compile_problem(AnalysisProblem(graph, mapping, quad_core_single_bank()))
        assert kernel.core_ids == (0, 1, 3)
        orders = [[kernel.names[i] for i in order] for order in kernel.core_orders]
        assert orders == [["a", "d"], ["b"], ["c", "e"]]
        preds = {name: kernel.predecessors_of(kernel.index_of[name]) for name in kernel.names}
        # 'd' follows 'a' on core 0 and in the graph: one merged edge
        assert preds["d"] == (kernel.index_of["a"],)
        assert preds["e"] == (kernel.index_of["c"],)
        assert preds["a"] == preds["b"] == preds["c"] == ()

    def test_first_task_on_each_core_keeps_only_its_graph_predecessors(self):
        kernel = compile_problem(diamond())
        right = kernel.index_of["right"]  # first on core 1, fed by 'src' on core 0
        assert kernel.predecessors_of(right) == (kernel.index_of["src"],)
        assert kernel.predecessors_of(kernel.index_of["src"]) == ()


class TestParamOverlay:
    def test_identity_overlay(self):
        overlay = ParamOverlay()
        assert overlay.is_identity()
        assert overlay.keeps_horizon
        assert overlay.horizon is KEEP_HORIZON

    def test_value_semantics(self):
        a = ParamOverlay(wcet=[1, 2, 3])
        b = ParamOverlay(wcet=(1, 2, 3))
        assert a == b
        assert hash(a) == hash(b)
        assert a != ParamOverlay(wcet=[1, 2, 4])
        assert ParamOverlay(horizon=None) != ParamOverlay()

    def test_rejects_bad_vectors(self):
        with pytest.raises(ModelError):
            ParamOverlay(wcet=[1, 0, 3])
        with pytest.raises(ModelError):
            ParamOverlay(horizon=0)
        with pytest.raises(ModelError):
            ParamOverlay(demand=[{0: 1}])  # not MemoryDemand instances

    def test_vector_length_checked_against_kernel(self):
        kernel = compile_problem(diamond())
        with pytest.raises(ModelError):
            OverlayProblem(kernel, ParamOverlay(wcet=[5, 5]))

    def test_scaled_overlays_match_sensitivity_scaling(self):
        from repro.analysis.sensitivity import scale_memory_demand, scale_wcets

        problem = diamond()
        kernel = compile_problem(problem)
        for factor in (0.3, 0.5, 1.0, 1.7, 3.14):
            wcet_overlay = kernel.scaled_wcet_overlay(factor)
            scaled_graph = scale_wcets(problem.graph, factor)
            assert list(wcet_overlay.wcet) == [
                scaled_graph.task(name).wcet for name in kernel.names
            ]
            demand_overlay = kernel.scaled_demand_overlay(factor)
            scaled_graph = scale_memory_demand(problem.graph, factor)
            assert list(demand_overlay.demand) == [
                scaled_graph.task(name).demand for name in kernel.names
            ]

    def test_scaled_overlay_bounds(self):
        kernel = compile_problem(diamond())
        with pytest.raises(AnalysisError):
            kernel.scaled_wcet_overlay(0)
        with pytest.raises(AnalysisError):
            kernel.scaled_demand_overlay(-1)


class TestOverlayProblem:
    def test_materialize_round_trip(self):
        problem = diamond()
        kernel = compile_problem(problem)
        probe = kernel.with_overlay(
            kernel.scaled_wcet_overlay(2.0), name="diamond-x2"
        )
        materialized = probe.materialize()
        assert materialized.name == "diamond-x2"
        assert materialized.graph.task("left").wcet == 40
        assert materialized.horizon == problem.horizon
        assert materialized.arbiter is problem.arbiter
        # cached: second call returns the same object
        assert probe.materialize() is materialized

    def test_horizon_overlay_tristate(self):
        problem = diamond()
        kernel = compile_problem(problem)
        assert kernel.with_overlay(ParamOverlay()).horizon == 200
        assert kernel.with_overlay(ParamOverlay(horizon=None)).horizon is None
        assert kernel.with_overlay(ParamOverlay(horizon=77)).horizon == 77
        assert kernel.with_overlay(ParamOverlay(horizon=None)).materialize().horizon is None

    def test_identity_overlay_analysis_matches_plain(self):
        problem = diamond()
        kernel = compile_problem(problem)
        plain = analyze_incremental(problem)
        via_overlay = analyze_incremental(kernel.with_overlay(ParamOverlay()))
        assert via_overlay.to_dict()["entries"] == plain.to_dict()["entries"]
        assert via_overlay.schedulable == plain.schedulable
        # only the compilation provenance differs
        assert plain.stats.kernel_compilations == 1
        assert via_overlay.stats.kernel_compilations == 0

    def test_non_kernel_aware_algorithm_gets_materialized_problem(self):
        from repro.core import register_algorithm

        seen = {}

        def probe_algorithm(problem):
            seen["type"] = type(problem).__name__
            return analyze_incremental(problem)

        register_algorithm("kernel-test-plain", probe_algorithm, overwrite=True)
        kernel = compile_problem(diamond())
        probe = kernel.with_overlay(kernel.scaled_wcet_overlay(1.5))
        result = analyze(probe, "kernel-test-plain")
        assert seen["type"] == "AnalysisProblem"
        assert result.schedulable


class TestCursorStart:
    def test_positive_min_release_skips_the_noop_step(self):
        builder = TaskGraphBuilder("late-start")
        builder.task("a", wcet=5, accesses=3, core=0, min_release=40)
        builder.task("b", wcet=5, accesses=3, core=1, min_release=60)
        graph, mapping = builder.build_both()
        problem = AnalysisProblem(graph, mapping, quad_core_single_bank())
        reference = reference_incremental(problem)
        schedule = analyze_incremental(problem)
        assert schedule.to_dict()["entries"] == reference.to_dict()["entries"]
        # one fewer cursor step: the t=0 no-op is gone
        assert schedule.stats.cursor_steps == reference.stats.cursor_steps - 1
        assert schedule.entry("a").release == 40

    def test_zero_min_release_unchanged(self):
        problem = diamond()
        reference = reference_incremental(problem)
        schedule = analyze_incremental(problem)
        assert schedule.stats.cursor_steps == reference.stats.cursor_steps

    def test_horizon_before_first_release_keeps_legacy_verdict(self):
        builder = TaskGraphBuilder("beyond")
        builder.task("a", wcet=5, core=0, min_release=100)
        graph, mapping = builder.build_both()
        problem = AnalysisProblem(
            graph, mapping, quad_core_single_bank(), horizon=50
        )
        reference = reference_incremental(problem)
        schedule = analyze_incremental(problem)
        assert not schedule.schedulable
        assert schedule.schedulable == reference.schedulable
        assert schedule.unscheduled == reference.unscheduled == ["a"]
        assert schedule.stats.cursor_steps == reference.stats.cursor_steps == 1

    def test_trace_still_records_every_step(self):
        from repro.core import IncrementalAnalyzer

        builder = TaskGraphBuilder("late-trace")
        builder.task("a", wcet=5, core=0, min_release=40)
        graph, mapping = builder.build_both()
        problem = AnalysisProblem(graph, mapping, quad_core_single_bank())
        analyzer = IncrementalAnalyzer(problem, trace=True)
        analyzer.run()
        positions = analyzer.trace.cursor_positions()
        assert positions[0] == 40  # no t=0 event any more
