"""Service-layer tests of the delta wire form, for both delta record kinds.

``POST /batch {"problem", "deltas": [...]}`` carries ``repro-overlay``
(parameter) and ``repro-structure-delta`` (structural) records alike, and
the client ships them through one method.  Each behaviour below runs once
per kind, plus the cases that only exist for one kind or for a mixed batch.
"""

import pytest

from repro.core import (
    ParamOverlay,
    StructureOverlay,
    analyze,
    compilation_count,
    compile_problem,
)
from repro.errors import SerializationError, ServiceError
from repro.generators import ChainsConfig, generate_chains
from repro.io import (
    delta_from_dict,
    delta_to_dict,
    overlay_to_dict,
    problem_to_dict,
    structure_delta_to_dict,
)
from repro.service import AnalysisServer, EngineRuntime, ServiceClient

KINDS = ["parameter", "structural"]


@pytest.fixture
def problem():
    workload = generate_chains(
        ChainsConfig(chains=4, length=5, core_count=4, bank_count=2, seed=11)
    )
    return workload.to_problem(horizon=200_000)


@pytest.fixture
def kernel(problem):
    return compile_problem(problem)


@pytest.fixture
def server():
    runtime = EngineRuntime(max_workers=1)
    server = AnalysisServer(runtime, port=0).start()
    try:
        yield server
    finally:
        server.close()
        runtime.close()


def _probes(kind, kernel):
    if kind == "parameter":
        return [
            kernel.with_overlay(kernel.scaled_wcet_overlay(factor), name=f"w-{factor}")
            for factor in (1.0, 1.5, 2.0, 2.5)
        ]
    names = [kernel.names[index] for index in kernel.topo_order]
    deltas = [
        StructureOverlay.remap_task(names[3], core=1),
        StructureOverlay.add_edge(names[0], names[7], volume=2),
        StructureOverlay.remove_task(names[-1]),
        StructureOverlay.add_task("extra", wcet=9, core=2, demand={0: 3}),
    ]
    return [kernel.patched(delta, name=f"probe-{k}") for k, delta in enumerate(deltas)]


def _assert_matches_local(probes, remote):
    for probe, schedule in zip(probes, remote):
        local = analyze(probe, "incremental")
        assert schedule.to_dict()["entries"] == local.to_dict()["entries"]
        assert schedule.schedulable == local.schedulable
        assert schedule.problem_name == probe.name


def _post_batch(server, document):
    with pytest.raises(ServiceError) as excinfo:
        ServiceClient(server.url)._request("POST", "/batch", document)
    return excinfo.value


class TestDeltaRecords:
    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip(self, kind, kernel):
        for probe in _probes(kind, kernel):
            record = delta_to_dict(probe)
            rebuilt = delta_from_dict(record, kernel)
            assert rebuilt.name == probe.name
            assert rebuilt.parent is kernel
            assert rebuilt.delta == probe.delta
            assert rebuilt.overlay == probe.overlay
            assert rebuilt.horizon == probe.horizon
            assert delta_to_dict(rebuilt) == record

    def test_horizon_tristate_round_trip(self, kernel):
        for overlay in (ParamOverlay(), ParamOverlay(horizon=None), ParamOverlay(horizon=9)):
            probe = kernel.with_overlay(overlay)
            rebuilt = delta_from_dict(delta_to_dict(probe), kernel)
            assert rebuilt.horizon == probe.horizon
            assert rebuilt.overlay == probe.overlay

    def test_foreign_document_rejected(self, kernel):
        with pytest.raises(SerializationError, match="repro-overlay or repro-structure-delta"):
            delta_from_dict({"format": "repro-problem"}, kernel)
        with pytest.raises(SerializationError):
            delta_from_dict("not-a-record", kernel)

    def test_wrong_vector_length_rejected(self, kernel):
        record = overlay_to_dict(kernel.with_overlay(kernel.scaled_wcet_overlay(2.0)))
        record["wcet"] = record["wcet"][:-1]
        with pytest.raises(SerializationError):
            delta_from_dict(record, kernel)


class TestServerDeltaBatch:
    @pytest.mark.parametrize("kind", KINDS)
    def test_client_delta_batch_matches_local_analysis(self, kind, server, kernel):
        probes = _probes(kind, kernel)
        remote = ServiceClient(server.url).analyze_many_deltas(probes, algorithm="incremental")
        _assert_matches_local(probes, remote)

    @pytest.mark.parametrize("kind", KINDS)
    def test_server_compiles_base_once_per_delta_batch(self, kind, server, kernel):
        before = compilation_count()
        ServiceClient(server.url).analyze_many_deltas(_probes(kind, kernel))
        # one server-side base compilation for the whole batch; structural
        # probes are patched, not compiled (the one-worker server runs in this
        # process, so the counter sees it)
        assert compilation_count() - before == 1

    def test_mixed_batch_matches_local_analysis_and_compiles_base_once(
        self, server, kernel
    ):
        probes = [
            probe
            for pair in zip(_probes("parameter", kernel), _probes("structural", kernel))
            for probe in pair
        ]
        before = compilation_count()
        remote = ServiceClient(server.url).analyze_many_deltas(probes, algorithm="incremental")
        assert compilation_count() - before == 1
        _assert_matches_local(probes, remote)

    def test_server_warm_starts_structural_probes_and_counts_hits(self, server, kernel):
        client = ServiceClient(server.url)
        remote = client.analyze_many_deltas(_probes("structural", kernel), algorithm="incremental")
        returned_hits = sum(s.stats.warm_start_hits for s in remote)
        # the server derives warm starts from its own parent analysis; the
        # probes resume from it (a probe dirty from time zero legitimately
        # has no prefix to replay) and the runtime counter aggregates them
        assert returned_hits > 0
        assert client.stats()["runtime"]["warm_start_hits"] == returned_hits

    @pytest.mark.parametrize("kind", KINDS)
    def test_malformed_record_is_a_400(self, kind, server, kernel):
        record = delta_to_dict(_probes(kind, kernel)[0])
        record["surprise"] = 1
        error = _post_batch(
            server, {"problem": problem_to_dict(kernel.problem), "deltas": [record]}
        )
        assert error.status == 400
        assert "deltas[0]" in str(error) and "surprise" in str(error)

    def test_short_overlay_vector_is_a_400(self, server, kernel):
        document = {
            "problem": problem_to_dict(kernel.problem),
            "deltas": [{"format": "repro-overlay", "version": 1, "wcet": [1]}],
        }
        assert _post_batch(server, document).status == 400

    def test_delta_against_unknown_task_is_a_400(self, server, kernel):
        record = structure_delta_to_dict(StructureOverlay.remove_task("no-such-task"))
        document = {"problem": problem_to_dict(kernel.problem), "deltas": [record]}
        assert _post_batch(server, document).status == 400

    @pytest.mark.parametrize("retired", ["overlays", "structure_deltas"])
    def test_retired_batch_forms_are_a_400_naming_deltas(self, retired, server, kernel):
        document = {"problem": problem_to_dict(kernel.problem), retired: []}
        error = _post_batch(server, document)
        assert error.status == 400
        assert "'deltas'" in str(error)

    def test_stats_expose_kernel_compilations(self, server):
        stats = ServiceClient(server.url).stats()
        assert "kernel_compilations" in stats["runtime"]
        metrics = ServiceClient(server.url).metrics()
        assert "repro_runtime_kernel_compilations_total" in metrics


class TestClientRejections:
    @pytest.mark.parametrize("kind", KINDS)
    def test_mixed_parents_rejected_client_side(self, kind, server, problem):
        probes = [
            _probes(kind, compile_problem(problem))[0]
            for _ in range(2)  # two separately compiled parents
        ]
        with pytest.raises(ServiceError):
            ServiceClient(server.url).analyze_many_deltas(probes)

    def test_non_probe_and_empty_rejected_client_side(self, server, problem):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError):
            client.analyze_many_deltas([problem])
        with pytest.raises(ServiceError):
            client.analyze_many_deltas([])
