"""Structural what-if grids: remap/edge generators and the batched search."""

import pytest

from repro.analysis import (
    SearchDriver,
    edge_grid,
    remap_grid,
    structural_what_if,
)
from repro.core import PatchedProblem, StructureOverlay, analyze, compile_problem
from repro.errors import AnalysisError
from repro.generators import ChainsConfig, generate_chains
from repro.service import EngineRuntime


@pytest.fixture
def problem():
    workload = generate_chains(
        ChainsConfig(chains=3, length=4, core_count=3, bank_count=2, seed=17)
    )
    return workload.to_problem(horizon=150_000)


@pytest.fixture
def kernel(problem):
    return compile_problem(problem)


class TestGrids:
    def test_remap_grid_excludes_current_mapping(self, kernel):
        grid = remap_grid(kernel)
        assert grid  # a multi-core platform always offers remaps
        for delta in grid:
            assert delta.kind == "remap_task"
            current = kernel.core_of[kernel.index_of[delta.task]]
            assert delta.core != current
        # every task × every non-current core, exactly once
        assert len(grid) == len(kernel.names) * (len(kernel.core_ids) - 1)

    def test_remap_grid_respects_task_and_core_filters(self, kernel):
        name = kernel.names[kernel.topo_order[0]]
        current = kernel.core_of[kernel.index_of[name]]
        cores = [c for c in kernel.core_ids if c != current][:1]
        grid = remap_grid(kernel, tasks=[name], cores=cores)
        assert [(d.task, d.core) for d in grid] == [(name, cores[0])]

    def test_edge_grid_is_acyclic_and_skips_existing_edges(self, kernel):
        position = {index: p for p, index in enumerate(kernel.topo_order)}
        for delta in edge_grid(kernel):
            assert delta.kind == "add_edge"
            producer = kernel.index_of[delta.producer]
            consumer = kernel.index_of[delta.consumer]
            assert position[producer] < position[consumer]
            assert consumer not in kernel.dependents_of(producer)

    def test_edge_grid_limit_caps_the_grid(self, kernel):
        assert len(edge_grid(kernel, limit=5)) == 5


class TestStructuralWhatIf:
    def test_empty_grid_raises(self, problem):
        with pytest.raises(AnalysisError):
            structural_what_if(problem, [])

    def test_serial_verdicts_match_cold_analysis(self, problem, kernel):
        # a topologically late task leaves a long clean prefix to resume from
        grid = remap_grid(kernel, tasks=[kernel.names[kernel.topo_order[-1]]])
        result = structural_what_if(kernel, grid, algorithm="incremental")
        assert len(result.verdicts) == len(grid)
        for delta, verdict in zip(grid, result.verdicts):
            cold = analyze(PatchedProblem(kernel, delta), "incremental")
            assert verdict.schedulable == cold.schedulable
            expected = cold.makespan if cold.schedulable else None
            assert verdict.makespan == expected
        assert result.warm_start_hits > 0

    def test_driver_grid_compiles_kernel_exactly_once(self, problem):
        from repro.core import compilation_count

        grid = remap_grid(problem)[:8] + edge_grid(problem, limit=4)
        with EngineRuntime(max_workers=2) as runtime:
            driver = SearchDriver(runtime=runtime)
            before = compilation_count()
            result = structural_what_if(problem, grid, driver=driver)
            assert compilation_count() - before == 1
        assert len(result.verdicts) == len(grid)
        assert result.warm_start_hits > 0
        # bit-identical to cold serial analysis of each edited problem
        kernel = compile_problem(problem)
        for delta, verdict in zip(grid, result.verdicts):
            cold = analyze(PatchedProblem(kernel, delta), "incremental")
            assert verdict.schedulable == cold.schedulable
            expected = cold.makespan if cold.schedulable else None
            assert verdict.makespan == expected

    def test_best_picks_smallest_schedulable_makespan(self, problem, kernel):
        grid = remap_grid(kernel)[:6]
        result = structural_what_if(kernel, grid, algorithm="incremental")
        best = result.best()
        schedulable = result.schedulable()
        if schedulable:
            assert best is not None
            assert best.makespan == min(
                v.makespan for v in schedulable if v.makespan is not None
            )
        else:
            assert best is None

    def test_to_dict_shape(self, problem, kernel):
        grid = remap_grid(kernel)[:2]
        document = structural_what_if(kernel, grid, algorithm="incremental").to_dict()
        assert set(document) == {"parent", "warm_start_hits", "verdicts"}
        assert len(document["verdicts"]) == 2
        for verdict in document["verdicts"]:
            assert set(verdict) == {
                "name",
                "kind",
                "schedulable",
                "makespan",
                "warm_start_hits",
            }
