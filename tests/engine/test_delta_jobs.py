"""Engine transport of probe jobs: split digests, payloads, kernel memo, warm starts.

The payload cases run once per delta kind: ``parameter`` probes (a
:class:`~repro.core.ParamOverlay` against the parent) and ``structural``
probes (a :class:`~repro.core.StructureOverlay` edit, warm-started from the
parent's schedule).  Both travel as the same payload form.
"""

import pickle
from concurrent.futures import Future

import pytest

from repro.core import (
    ParamOverlay,
    StructureOverlay,
    analyze,
    analyze_incremental,
    compile_problem,
)
from repro.engine import BatchAnalyzer, analyze_many
from repro.engine import EngineRuntime
from repro.engine.executor import run_jobs_on
from repro.engine.jobs import (
    SCHEMA_VERSION,
    AnalysisJob,
    _warm_schedule_from_payload,
)
from repro.errors import EngineError
from repro.generators import ChainsConfig, fixed_ls_workload, generate_chains

KINDS = ["parameter", "structural"]


@pytest.fixture
def base_problem():
    workload = generate_chains(
        ChainsConfig(chains=4, length=5, core_count=4, bank_count=2, seed=11)
    )
    return workload.to_problem(horizon=200_000)


@pytest.fixture
def kernel(base_problem):
    return compile_problem(base_problem)


@pytest.fixture
def parent_schedule(base_problem):
    return analyze_incremental(base_problem)


def _structural_deltas(kernel):
    names = [kernel.names[index] for index in kernel.topo_order]
    return [
        StructureOverlay.noop(),
        StructureOverlay.remap_task(names[3], core=1),
        StructureOverlay.add_edge(names[0], names[7], volume=2),
        StructureOverlay.remove_task(names[-1]),
        StructureOverlay.add_task("extra", wcet=9, core=2, demand={0: 3}),
    ]


def _probes(kind, kernel, parent_schedule):
    if kind == "parameter":
        return [
            kernel.with_overlay(kernel.scaled_wcet_overlay(1.3), name="w13"),
            kernel.with_overlay(kernel.scaled_demand_overlay(1.5), name="d15"),
            kernel.with_overlay(ParamOverlay(horizon=None), name="unconstrained"),
        ]
    return [
        kernel.patched(delta, name=f"probe-{k}", parent_schedule=parent_schedule)
        for k, delta in enumerate(_structural_deltas(kernel))
    ]


def _clear_kernel_memo():
    """Force the worker-side parse+compile path (the memo would shortcut it)."""
    from repro.engine import jobs as jobs_module

    with jobs_module._KERNEL_MEMO_LOCK:
        jobs_module._KERNEL_MEMO.clear()


def _same_result(left, right):
    assert left.to_dict()["entries"] == right.to_dict()["entries"]
    assert left.schedulable == right.schedulable
    assert left.problem_name == right.problem_name
    assert left.stats.warm_start_hits == right.stats.warm_start_hits


class TestSplitDigests:
    def test_cache_key_carries_combined_digest_and_schema(self, base_problem):
        job = AnalysisJob(problem=base_problem, algorithm="incremental")
        assert job.cache_key == f"{job.digest}:incremental:v{SCHEMA_VERSION}"
        assert len(job.structure_digest) == 64
        assert len(job.overlay_digest) == 64

    def test_structure_digest_invariant_under_parameter_changes(self, kernel):
        a = AnalysisJob(problem=kernel.with_overlay(kernel.scaled_wcet_overlay(1.5)))
        b = AnalysisJob(problem=kernel.with_overlay(kernel.scaled_demand_overlay(0.5)))
        c = AnalysisJob(problem=kernel.with_overlay(ParamOverlay(horizon=None)))
        assert a.structure_digest == b.structure_digest == c.structure_digest
        assert len({a.overlay_digest, b.overlay_digest, c.overlay_digest}) == 3
        assert len({a.digest, b.digest, c.digest}) == 3

    def test_noop_structural_probe_digests_identically_to_parent(
        self, kernel, base_problem, parent_schedule
    ):
        noop = kernel.patched(StructureOverlay.noop(), parent_schedule=parent_schedule)
        assert AnalysisJob(problem=noop).digest == AnalysisJob(problem=base_problem).digest

    def test_edited_probe_digests_differently(self, kernel, base_problem, parent_schedule):
        probe = _probes("structural", kernel, parent_schedule)[1]
        assert AnalysisJob(problem=probe).digest != AnalysisJob(problem=base_problem).digest

    def test_probe_and_materialized_share_cache_entries(self, kernel):
        probe = kernel.with_overlay(kernel.scaled_wcet_overlay(2.0), name="x2")
        materialized = probe.materialize()
        analyzer = BatchAnalyzer(max_workers=1)
        first = analyzer.run([probe])
        second = analyzer.run([materialized])
        assert (first.computed, first.cached) == (1, 0)
        assert (second.computed, second.cached) == (0, 1)  # pure cache hit
        assert first.schedules[0].makespan == second.schedules[0].makespan

    def test_intra_batch_dedup_across_forms(self, kernel):
        probe = kernel.with_overlay(kernel.scaled_wcet_overlay(2.0), name="as-probe")
        materialized = probe.materialize()
        report = BatchAnalyzer(max_workers=1).run([probe, materialized])
        assert report.computed == 1
        assert report.cached == 1
        assert report.schedules[0].makespan == report.schedules[1].makespan
        assert report.schedules[1].problem_name == "as-probe"  # relabeled clone

    def test_batch_report_counts_structures(self, kernel):
        other = fixed_ls_workload(12, 3, core_count=3, seed=99).to_problem()
        probes = [
            kernel.with_overlay(kernel.scaled_wcet_overlay(factor))
            for factor in (1.0, 1.5, 2.0)
        ]
        report = BatchAnalyzer(max_workers=1).run([*probes, other])
        assert report.structures == 2  # one shared kernel + one foreign problem


@pytest.mark.parametrize("kind", KINDS)
class TestPayloadTransport:
    def test_payload_round_trip_is_bit_identical(self, kind, kernel, parent_schedule):
        for probe in _probes(kind, kernel, parent_schedule):
            job = AnalysisJob(problem=probe, algorithm="incremental", index=3)
            payload = job.to_payload()
            expected_keys = {"base_problem", "base_digest", "delta", "arbiter"}
            if probe.warm is not None:
                expected_keys.add("warm_start")
            assert expected_keys <= set(payload)
            assert "problem" not in payload
            _clear_kernel_memo()
            rebuilt = AnalysisJob.from_payload(payload)
            assert rebuilt.index == 3
            assert rebuilt.name == probe.name
            assert rebuilt.split_digests == job.split_digests
            assert rebuilt.problem.parent is not kernel  # really rebuilt
            _same_result(rebuilt.run(), analyze(probe, "incremental"))

    def test_payload_survives_pickle_like_a_pool_would(self, kind, kernel, parent_schedule):
        probes = _probes(kind, kernel, parent_schedule)
        payloads = [AnalysisJob(problem=p, algorithm="incremental").to_payload() for p in probes]
        wire = pickle.dumps(payloads)
        _clear_kernel_memo()
        for payload, probe in zip(pickle.loads(wire), probes):
            _same_result(AnalysisJob.from_payload(payload).run(), analyze(probe, "incremental"))

    def test_round_trip_via_structure_table(self, kind, kernel, parent_schedule):
        probe = _probes(kind, kernel, parent_schedule)[1]
        payload = AnalysisJob(problem=probe, algorithm="incremental").to_payload()
        structures = {payload["base_digest"]: payload.pop("base_problem")}
        _clear_kernel_memo()
        rebuilt = AnalysisJob.from_payload(payload, structures=structures)
        _same_result(rebuilt.run(), analyze(probe, "incremental"))

    def test_payload_without_base_or_table_fails_cleanly(self, kind, kernel, parent_schedule):
        probe = _probes(kind, kernel, parent_schedule)[1]
        payload = AnalysisJob(problem=probe).to_payload()
        payload.pop("base_problem")
        # poison the memo key so the worker-side kernel memo cannot serve it
        payload["base_digest"] = "0" * 64
        with pytest.raises(EngineError):
            AnalysisJob.from_payload(payload, structures={})

    def test_pool_runs_are_bit_identical(self, kind, kernel, parent_schedule):
        probes = _probes(kind, kernel, parent_schedule)
        jobs = [
            AnalysisJob(problem=probe, algorithm="incremental", index=i)
            for i, probe in enumerate(probes)
        ]
        with EngineRuntime(max_workers=2) as runtime:
            pooled = runtime.run(jobs)
        for left, probe in zip(pooled, probes):
            _same_result(left, analyze(probe, "incremental"))
        if kind == "structural":
            # every non-degenerate probe resumed warm
            assert sum(s.stats.warm_start_hits for s in pooled) >= len(probes) - 1


class _InlinePool:
    """Executor stand-in that runs each chunk at once and records its table."""

    def __init__(self):
        self.tables = []

    def submit(self, fn, payloads, structures, traceparent):
        self.tables.append((payloads, structures))
        future = Future()
        future.set_result(fn(payloads, structures, traceparent))
        return future


class TestChunkFactoring:
    def test_mixed_chunk_ships_the_parent_and_its_schedule_once(
        self, kernel, parent_schedule
    ):
        probes = _probes("parameter", kernel, parent_schedule) + _probes(
            "structural", kernel, parent_schedule
        )
        jobs = [
            AnalysisJob(problem=probe, algorithm="incremental", index=i)
            for i, probe in enumerate(probes)
        ]
        pool = _InlinePool()
        results = run_jobs_on(pool, jobs, workers=1, chunksize=len(jobs))
        [(payloads, structures)] = pool.tables
        warm_keys = [key for key in structures if key.startswith("warm:")]
        assert len(structures) == 2 and len(warm_keys) == 1
        assert all("base_problem" not in payload for payload in payloads)
        assert {payload.get("warm_start") for payload in payloads} == {None, warm_keys[0]}
        for schedule, probe in zip(results, probes):
            _same_result(schedule, analyze(probe, "incremental"))


class TestWarmStarts:
    def test_unresolvable_warm_reference_degrades_to_cold(self, kernel, parent_schedule):
        probe = _probes("structural", kernel, parent_schedule)[1]
        payload = AnalysisJob(problem=probe, algorithm="incremental").to_payload()
        # simulate a factored-out parent schedule whose table entry got lost
        payload["warm_start"] = "warm:0000:incremental"
        _clear_kernel_memo()
        schedule = AnalysisJob.from_payload(payload, structures={}).run()
        expected = analyze(kernel.patched(probe.delta, name=probe.name))
        assert schedule.stats.warm_start_hits == 0
        assert schedule.to_dict()["entries"] == expected.to_dict()["entries"]

    def test_warm_schedule_from_payload_rejects_garbage(self):
        assert _warm_schedule_from_payload(None, None) is None
        assert _warm_schedule_from_payload(42, None) is None
        assert _warm_schedule_from_payload("warm:x", None) is None
        assert _warm_schedule_from_payload("warm:x", {}) is None


def test_analyze_many_mixes_probes_and_problems(kernel, base_problem):
    probes = [
        kernel.with_overlay(kernel.scaled_demand_overlay(factor))
        for factor in (0.5, 1.5)
    ]
    schedules = analyze_many([base_problem, *probes], max_workers=2)
    reference = [analyze(base_problem), *(analyze(p) for p in probes)]
    for left, right in zip(schedules, reference):
        assert left.to_dict()["entries"] == right.to_dict()["entries"]
