"""Unit tests for :class:`repro.core.AnalysisProblem`."""

import pytest

from repro import (
    AnalysisProblem,
    FifoArbiter,
    Mapping,
    RoundRobinArbiter,
    TaskGraphBuilder,
)
from repro.errors import MappingError, ModelError, PlatformError
from repro.platform import partitioned_banks, quad_core_single_bank


def build_problem(**kwargs):
    builder = TaskGraphBuilder("p")
    builder.task("a", wcet=5, accesses=2, core=0)
    builder.task("b", wcet=5, accesses=2, core=1)
    builder.edge("a", "b")
    graph, mapping = builder.build_both()
    defaults = dict(
        graph=graph,
        mapping=mapping,
        platform=quad_core_single_bank(),
        arbiter=RoundRobinArbiter(),
    )
    defaults.update(kwargs)
    return AnalysisProblem(**defaults)


class TestValidation:
    def test_valid_problem(self):
        problem = build_problem()
        assert problem.task_count == 2
        assert problem.arbiter.name == "round-robin"

    def test_default_arbiter_is_round_robin(self):
        problem = build_problem(arbiter=None)
        assert problem.arbiter.name == "round-robin"

    def test_mapping_to_unknown_core_rejected(self):
        builder = TaskGraphBuilder("p")
        builder.task("a", wcet=5, core=99)
        graph, mapping = builder.build_both()
        with pytest.raises(PlatformError):
            AnalysisProblem(graph, mapping, quad_core_single_bank())

    def test_access_to_unknown_bank_rejected(self):
        builder = TaskGraphBuilder("p")
        builder.task("a", wcet=5, accesses={9: 3}, core=0)
        graph, mapping = builder.build_both()
        with pytest.raises(PlatformError):
            AnalysisProblem(graph, mapping, quad_core_single_bank())

    def test_access_to_foreign_reserved_bank_rejected(self):
        platform = partitioned_banks(2, shared_banks=1)
        builder = TaskGraphBuilder("p")
        # bank 1 is reserved for core 1, but the task runs on core 0
        builder.task("a", wcet=5, accesses={1: 3}, core=0)
        graph, mapping = builder.build_both()
        with pytest.raises(MappingError):
            AnalysisProblem(graph, mapping, platform)

    def test_unmapped_task_rejected(self):
        builder = TaskGraphBuilder("p")
        builder.task("a", wcet=5, core=0)
        builder.task("b", wcet=5)  # not mapped
        graph = builder.build()
        mapping = Mapping({0: ["a"]})
        with pytest.raises(MappingError):
            AnalysisProblem(graph, mapping, quad_core_single_bank())

    def test_invalid_horizon_rejected(self):
        with pytest.raises(ModelError):
            build_problem(horizon=0)


class TestDerivedViews:
    def test_effective_predecessors_include_core_order(self):
        builder = TaskGraphBuilder("p")
        builder.task("a", wcet=5, core=0)
        builder.task("b", wcet=5, core=0)
        builder.task("c", wcet=5, core=1)
        builder.edge("a", "c")
        graph, mapping = builder.build_both()
        problem = AnalysisProblem(graph, mapping, quad_core_single_bank())
        # b has no graph dependency but follows a on core 0
        assert problem.effective_predecessors("b") == {"a"}
        assert problem.effective_predecessors("c") == {"a"}
        assert problem.effective_predecessors("a") == set()

    def test_effective_predecessor_map_never_scans_core_orders(self, monkeypatch):
        """One core-predecessor table per map, not one order scan per task."""
        from repro.generators import fixed_ls_workload
        from repro.model import Mapping

        problem = fixed_ls_workload(400, 64, seed=1).to_problem()
        expected = {task.name: problem.effective_predecessors(task.name) for task in problem.graph}

        def _scan(self, task):  # pragma: no cover - must never run
            raise AssertionError("Mapping.predecessor_on_core called")

        monkeypatch.setattr(Mapping, "predecessor_on_core", _scan)
        assert problem.effective_predecessor_map() == expected

    def test_effective_successor_map_is_reverse(self):
        problem = build_problem()
        successors = problem.effective_successor_map()
        assert successors["a"] == ["b"]
        assert successors["b"] == []

    def test_shared_bank_ids_exclude_reserved(self):
        platform = partitioned_banks(2, shared_banks=1)
        builder = TaskGraphBuilder("p")
        builder.task("a", wcet=5, accesses={0: 1}, core=0)
        graph, mapping = builder.build_both()
        problem = AnalysisProblem(graph, mapping, platform)
        assert problem.shared_bank_ids() == [2]

    def test_with_arbiter_and_horizon_copies(self):
        problem = build_problem()
        fifo = problem.with_arbiter(FifoArbiter())
        assert fifo.arbiter.name == "fifo"
        assert problem.arbiter.name == "round-robin"
        assert fifo.graph is problem.graph
        limited = problem.with_horizon(1000)
        assert limited.horizon == 1000
        assert problem.horizon is None
