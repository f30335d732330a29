"""Differential tests of the incremental analyzer's interference accounting.

The analyzer charges interference on integer tables built once per run: in
O(1) per shared bank for a per-core-sum arbiter, by re-evaluating the
arbiter on the full competitor map for any other.  The frozen oracle in
``reference_impl.py`` charges through ``InterferenceTracker``.  Both must
agree on the entries (as JSON text, so the per-bank order counts too), the
verdict, the unscheduled tasks, the makespan, the cursor steps and the IBUS
calls, for every built-in arbiter, on platforms with shared and reserved
banks, with a horizon that cuts the run, with tracing on, and for warm
structural probes against their cold runs.
"""

import json
import random

import pytest

from repro import AnalysisProblem
from repro.arbiter import (
    BusArbiter,
    FifoArbiter,
    FixedPriorityArbiter,
    MultiLevelRoundRobinArbiter,
    NullArbiter,
    RoundRobinArbiter,
    TdmArbiter,
    WeightedRoundRobinArbiter,
)
from repro.core import (
    PatchedProblem,
    StructureOverlay,
    analyze_incremental,
    compile_problem,
    patch_problem,
)
from repro.errors import ReproError
from repro.generators import (
    ChainsConfig,
    ForkJoinConfig,
    fixed_ls_workload,
    fixed_nl_workload,
    generate_chains,
    generate_fork_join,
)
from repro.model import Mapping, MemoryDemand, Task, TaskGraph
from repro.platform import Core, MemoryBank, Platform

from .reference_impl import reference_incremental

CORES = 4


def _arbiters():
    """Every built-in arbiter, with default and non-default parameters."""
    return {
        "round-robin": RoundRobinArbiter(),
        "weighted-round-robin": WeightedRoundRobinArbiter(),
        "weighted-round-robin-weights": WeightedRoundRobinArbiter(
            {0: 3, 2: 2}, default_weight=2
        ),
        "fifo": FifoArbiter(),
        "null": NullArbiter(),
        "fixed-priority": FixedPriorityArbiter(),
        "fixed-priority-explicit": FixedPriorityArbiter({0: 3, 1: 0, 2: 2, 3: 1}),
        "tdm": TdmArbiter(total_cores=CORES),
        "tdm-slots": TdmArbiter(total_cores=CORES, slots={1: 3}),
        "multilevel-round-robin": MultiLevelRoundRobinArbiter(),
        "multilevel-groups": MultiLevelRoundRobinArbiter(group_size=3, groups={0: 1, 3: 0}),
    }


def _banked_problem(seed: int, bank_count: int) -> AnalysisProblem:
    """Random DAG on ``bank_count`` banks, the last one reserved for core 1.

    Built unvalidated, so tasks on other cores may touch the reserved bank:
    the accounting must skip it, as the tracker does.
    """
    rng = random.Random(seed)
    graph = TaskGraph(f"banked-{bank_count}-{seed}")
    mapping = Mapping()
    names = []
    for i in range(rng.randint(12, 24)):
        name = f"t{i:03d}"
        # banks listed in a random order, so first-charge order is exercised
        banks = rng.sample(range(bank_count), bank_count)
        demand = {bank: rng.choice([0, 0, 1, 3, 7, 12]) for bank in banks}
        graph.add_task(
            Task(
                name=name,
                wcet=rng.randint(1, 30),
                demand=MemoryDemand(demand),
                min_release=rng.choice([0, 0, rng.randint(1, 40)]),
            )
        )
        mapping.assign(name, rng.randrange(CORES))
        for earlier in names:
            if rng.random() < 0.15:
                graph.add_dependency(earlier, name)
        names.append(name)
    banks = [MemoryBank(identifier=b, access_latency=1 + b) for b in range(bank_count)]
    if bank_count > 1:
        banks[-1] = MemoryBank(identifier=bank_count - 1, access_latency=2, reserved_for=1)
    platform = Platform(name=f"plat-{bank_count}", cores=_cores(), banks=banks)
    return AnalysisProblem(graph, mapping, platform, validate=False)


def _cores():
    return [Core(identifier=i, priority=(7 * i) % CORES) for i in range(CORES)]


def _workloads():
    cases = [
        fixed_ls_workload(36, 6, core_count=CORES, seed=3).to_problem(),
        fixed_nl_workload(30, 5, core_count=CORES, seed=11).to_problem(),
        generate_chains(
            ChainsConfig(chains=6, length=5, core_count=CORES, bank_count=2, seed=7)
        ).to_problem(),
        generate_fork_join(
            ForkJoinConfig(sections=3, width=4, core_count=CORES, seed=13)
        ).to_problem(),
    ]
    cases.extend(_banked_problem(seed, banks) for seed, banks in ((1, 1), (2, 2), (9, 3)))
    return cases


WORKLOADS = _workloads()
ARBITERS = _arbiters()


def _identical(new, ref):
    """``new`` (production) matches ``ref`` (oracle) on the whole contract."""
    assert json.dumps(new.to_dict()["entries"]) == json.dumps(ref.to_dict()["entries"])
    assert new.schedulable == ref.schedulable
    assert new.unscheduled == ref.unscheduled
    assert new.makespan == ref.makespan
    assert new.stats.ibus_calls == ref.stats.ibus_calls


def _check_against_reference(problem, **kwargs):
    new = analyze_incremental(problem, **kwargs)
    ref = reference_incremental(problem)
    _identical(new, ref)
    # the oracle starts its cursor at t = 0: one extra no-op step when every
    # task releases late (and the run is not aborted before its first release)
    start = min(task.min_release for task in problem.graph)
    late = start > 0 and (problem.horizon is None or start <= problem.horizon)
    assert ref.stats.cursor_steps - new.stats.cursor_steps == (1 if late else 0)
    return new


@pytest.mark.parametrize("arbiter", sorted(ARBITERS))
@pytest.mark.parametrize("case", range(len(WORKLOADS)))
class TestAgainstReference:
    def test_cold_run(self, case, arbiter):
        problem = WORKLOADS[case].with_arbiter(ARBITERS[arbiter])
        _check_against_reference(problem)

    def test_horizon_cuts_the_run(self, case, arbiter):
        problem = WORKLOADS[case].with_arbiter(ARBITERS[arbiter])
        makespan = analyze_incremental(problem.with_horizon(None)).makespan
        cut = problem.with_horizon(max(makespan // 2, 1))
        schedule = _check_against_reference(cut)
        assert not schedule.schedulable

    def test_traced_run(self, case, arbiter):
        problem = WORKLOADS[case].with_arbiter(ARBITERS[arbiter])
        schedule = _check_against_reference(problem, trace=True)
        assert schedule.stats.cursor_steps >= 1

    def test_demand_overlay_probe(self, case, arbiter):
        """The tables come from the probe's own demand vector, not the kernel's."""
        kernel = compile_problem(WORKLOADS[case].with_arbiter(ARBITERS[arbiter]))
        probe = kernel.with_overlay(kernel.scaled_demand_overlay(1.7))
        _identical(analyze_incremental(probe), reference_incremental(probe.materialize()))


def _structural_deltas(kernel, rng, count):
    """Up to ``count`` single edits that patch cleanly."""
    names = list(kernel.names)
    deltas = []
    for _ in range(8 * count):
        if len(deltas) == count:
            break
        kind = rng.choice(["add_task", "remove_task", "add_edge", "remove_edge", "remap"])
        if kind == "add_task":
            delta = StructureOverlay.add_task(
                f"extra-{rng.randrange(10**6)}",
                wcet=rng.randint(1, 40),
                core=rng.choice(kernel.core_ids),
                demand={bank: rng.randint(0, 9) for bank in kernel.bank_ids[:1]},
            )
        elif kind == "remove_task":
            delta = StructureOverlay.remove_task(rng.choice(names))
        elif kind == "remap":
            delta = StructureOverlay.remap_task(rng.choice(names), rng.choice(kernel.core_ids))
        else:
            producer, consumer = rng.sample(names, 2)
            if kind == "add_edge":
                delta = StructureOverlay.add_edge(producer, consumer)
            else:
                delta = StructureOverlay.remove_edge(producer, consumer)
        try:
            patch_problem(kernel, delta)
        except ReproError:
            continue
        deltas.append(delta)
    return deltas


@pytest.mark.parametrize("arbiter", sorted(ARBITERS))
def test_warm_structural_probes_match_their_cold_runs(arbiter):
    rng = random.Random(arbiter)
    warm_hits = 0
    for problem in WORKLOADS:
        problem = problem.with_arbiter(ARBITERS[arbiter])
        kernel = compile_problem(problem)
        parent = analyze_incremental(problem)
        for delta in _structural_deltas(kernel, rng, 4):
            warm = analyze_incremental(PatchedProblem(kernel, delta, parent_schedule=parent))
            cold = analyze_incremental(PatchedProblem(kernel, delta))
            _identical(warm, cold)
            assert warm.stats.cursor_steps == cold.stats.cursor_steps
            warm_hits += warm.stats.warm_start_hits
    assert warm_hits > 0  # some probes really resumed from their parent


class _DoubledRoundRobin(RoundRobinArbiter):
    """A plug-in that overrides a per-core-sum arbiter's bound."""

    def interference(self, dest_core, dest_accesses, competitors, bank):
        return 2 * super().interference(dest_core, dest_accesses, competitors, bank)


class _Shrinking(BusArbiter):
    """A non-monotone plug-in: the bound drops once a second core competes."""

    name = "shrinking"

    def interference(self, dest_core, dest_accesses, competitors, bank):
        if not dest_accesses or not competitors:
            return 0
        return bank.access_latency * (dest_accesses if len(competitors) == 1 else 1)


@pytest.mark.parametrize("plugin", [_DoubledRoundRobin, _Shrinking])
@pytest.mark.parametrize("case", range(len(WORKLOADS)))
def test_plugin_arbiters_take_the_generic_path(case, plugin):
    """An overridden bound is re-evaluated in full, and a shrinking one clamped."""
    _check_against_reference(WORKLOADS[case].with_arbiter(plugin()))


def test_reserved_bank_never_charged():
    """A bank reserved for one core carries no interference, whoever touches it."""
    problem = _banked_problem(2, 2)
    reserved = 1
    touching = [task for task in problem.graph if task.demand[reserved] > 0]
    assert len({problem.mapping.core_of(task.name) for task in touching}) > 1
    schedule = analyze_incremental(problem)
    assert all(reserved not in entry.interference_by_bank for entry in schedule.entries())
    _check_against_reference(problem)
