"""Probes of two parents that share a structure but not their parameters.

Two problems with the same graph, mapping and platform but one different
WCET have equal structure digests and different content digests.  Their
probes must each run against their *own* parent: the worker kernel memo, the
chunk structure table and the factored warm-start schedules are keyed by the
parent's full content digest, never by the structure half alone.  The same
holds for two parents with equal content digests whose tasks were inserted
in different orders: a probe's vectors follow its own parent's task order,
so those keys include that order too.

Each probe batch runs on a two-worker process pool in one chunk, so one
worker sees both parents.
"""

import pytest

from repro.core import (
    AnalysisProblem,
    ParamOverlay,
    StructureOverlay,
    analyze,
    analyze_incremental,
    compile_problem,
)
from repro.engine.jobs import AnalysisJob
from repro.generators import fixed_ls_workload
from repro.io.json_io import problem_from_dict, problem_to_dict
from repro.service import EngineRuntime


def _twin_problems():
    base = fixed_ls_workload(24, 4, core_count=4, seed=5).to_problem(horizon=400_000)
    graph = base.graph.copy()
    first = next(iter(graph))
    graph.replace_task(first.with_wcet(first.wcet * 50))
    slower = AnalysisProblem(
        graph=graph,
        mapping=base.mapping,
        platform=base.platform,
        arbiter=base.arbiter,
        horizon=base.horizon,
        name=base.name,
    )
    return base, slower


@pytest.fixture
def parents():
    base, slower = _twin_problems()
    kernels = [compile_problem(base), compile_problem(slower)]
    first, second = (AnalysisJob(problem=problem) for problem in (base, slower))
    assert first.structure_digest == second.structure_digest
    assert first.digest != second.digest
    return kernels


def _run_in_one_chunk(probes):
    jobs = [
        AnalysisJob(problem=probe, algorithm="incremental", index=index)
        for index, probe in enumerate(probes)
    ]
    with EngineRuntime(max_workers=2) as runtime:
        return runtime.run(jobs, chunksize=len(jobs))


def test_parameter_probes_run_against_their_own_parent(parents):
    probes = [
        kernel.with_overlay(kernel.scaled_demand_overlay(1.5), name=f"d15-{k}")
        for k, kernel in enumerate(parents)
    ]
    serial = [analyze(probe, "incremental").makespan for probe in probes]
    assert serial[0] != serial[1]
    assert [schedule.makespan for schedule in _run_in_one_chunk(probes)] == serial


def test_structural_probes_run_against_their_own_parent(parents):
    last = parents[0].names[parents[0].topo_order[-1]]
    delta = StructureOverlay.remap_task(last, core=0)
    probes = [
        kernel.patched(
            delta,
            name=f"remap-{k}",
            parent_schedule=analyze_incremental(kernel.problem),
        )
        for k, kernel in enumerate(parents)
    ]
    serial = [analyze(probe, "incremental") for probe in probes]
    assert serial[0].makespan != serial[1].makespan
    pooled = _run_in_one_chunk(probes)
    for left, right in zip(pooled, serial):
        assert left.to_dict()["entries"] == right.to_dict()["entries"]
        assert left.stats.warm_start_hits == right.stats.warm_start_hits


def test_probes_of_a_reordered_twin_run_against_their_own_parent():
    base = fixed_ls_workload(24, 4, core_count=4, seed=5).to_problem(horizon=400_000)
    document = problem_to_dict(base)
    document["graph"]["tasks"].reverse()
    kernels = [compile_problem(base), compile_problem(problem_from_dict(document))]
    assert kernels[0].names == kernels[1].names[::-1]
    jobs = [AnalysisJob(problem=kernel.problem) for kernel in kernels]
    assert jobs[0].digest == jobs[1].digest
    # the same named task gets 50x its WCET, each vector in its parent's order
    slow = kernels[0].names[0]
    probes = [
        kernel.with_overlay(
            ParamOverlay(
                wcet=[
                    wcet * 50 if name == slow else wcet
                    for name, wcet in zip(kernel.names, kernel.wcet)
                ]
            ),
            name=f"slow-{k}",
        )
        for k, kernel in enumerate(kernels)
    ]
    serial = [analyze(probe, "incremental").makespan for probe in probes]
    assert serial[0] == serial[1]
    assert [schedule.makespan for schedule in _run_in_one_chunk(probes)] == serial
