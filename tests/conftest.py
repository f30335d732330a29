"""Shared pytest fixtures: canonical problems, platforms and workloads."""

from __future__ import annotations

import pytest

from repro import AnalysisProblem, RoundRobinArbiter, TaskGraphBuilder
from repro.examples_data import figure1_problem, figure2_problem
from repro.generators import fixed_ls_workload, fixed_nl_workload
from repro.platform import mppa256_cluster, quad_core_single_bank


@pytest.fixture
def figure1():
    """The 5-task worked example of Figure 1 of the paper."""
    return figure1_problem()


@pytest.fixture
def figure2():
    """The 11-task cursor-mechanism example shaped like Figure 2."""
    return figure2_problem()


@pytest.fixture
def quad_platform():
    return quad_core_single_bank()


@pytest.fixture
def mppa_platform():
    return mppa256_cluster()


@pytest.fixture
def small_workload():
    """A deterministic 48-task layer-by-layer workload on 8 cores."""
    return fixed_ls_workload(48, 8, core_count=8, seed=7)


@pytest.fixture
def small_problem(small_workload):
    return small_workload.to_problem()


@pytest.fixture
def deep_workload():
    """A deterministic fixed-NL workload (wide layers)."""
    return fixed_nl_workload(60, 6, core_count=8, seed=11)


@pytest.fixture
def diamond_problem():
    """A tiny diamond-shaped problem (source, two branches, sink) on two cores."""
    builder = TaskGraphBuilder("diamond")
    builder.task("src", wcet=10, accesses=4, core=0)
    builder.task("left", wcet=20, accesses=6, core=0)
    builder.task("right", wcet=15, accesses=8, core=1)
    builder.task("sink", wcet=10, accesses=2, core=1)
    builder.edge("src", "left", volume=2)
    builder.edge("src", "right", volume=2)
    builder.edge("left", "sink", volume=1)
    builder.edge("right", "sink", volume=1)
    graph, mapping = builder.build_both()
    return AnalysisProblem(
        graph=graph,
        mapping=mapping,
        platform=quad_core_single_bank(),
        arbiter=RoundRobinArbiter(),
        name="diamond",
    )
