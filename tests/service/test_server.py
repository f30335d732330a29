"""Tests for the :mod:`repro.service` HTTP API server and client.

Acceptance criterion of the service PR: a server round-trip through
:class:`ServiceClient` reproduces the in-process :func:`repro.analyze_many`
results **byte-for-byte** on the JSON report (proven through a shared
persistent cache directory, which is exactly what makes the service a
drop-in for local analysis).
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import time
import urllib.error
import urllib.request

import pytest

from repro import analyze, analyze_many
from repro.analysis import memory_sensitivity, minimal_horizon
from repro.core.analyzer import register_algorithm
from repro.errors import BatchExecutionError, ServiceError
from repro.generators import fixed_ls_workload
from repro.io import problem_to_dict
from repro.service import AnalysisServer, EngineRuntime, ServiceClient


def _sweep(count: int):
    return [
        fixed_ls_workload(16, 4, core_count=4, seed=seed).to_problem() for seed in range(count)
    ]


@pytest.fixture
def service(tmp_path):
    """A running server (one-worker runtime, ephemeral port) and its client."""
    runtime = EngineRuntime(max_workers=1, cache=tmp_path / "cache")
    server = AnalysisServer(runtime, port=0).start()
    client = ServiceClient(server.url, timeout=30)
    yield server, client, runtime
    server.close()
    runtime.close()


class TestEndpoints:
    def test_healthz(self, service):
        _, client, _ = service
        document = client.healthz()
        assert document["status"] == "ok"
        assert document["service"] == "repro"

    def test_analyze_round_trip(self, service):
        _, client, _ = service
        problem = _sweep(1)[0]
        remote = client.analyze(problem)
        local = analyze(problem)
        assert remote.to_dict()["entries"] == local.to_dict()["entries"]
        assert remote.makespan == local.makespan
        assert remote.problem_name == problem.name

    def test_batch_round_trip_preserves_order(self, service):
        _, client, _ = service
        problems = _sweep(3)
        remote = client.analyze_many(problems)
        local = analyze_many(problems, max_workers=1)
        assert [r.to_dict()["entries"] for r in remote] == [
            l.to_dict()["entries"] for l in local
        ]

    def test_search_memory_matches_local(self, service):
        _, client, _ = service
        problem = _sweep(1)[0]
        horizon = int(minimal_horizon(problem) * 1.2)
        document = client.search(
            problem, kind="memory", horizon=horizon, max_factor=8.0, tolerance=0.25
        )
        local = memory_sensitivity(
            problem.with_horizon(horizon), max_factor=8.0, tolerance=0.25
        )
        assert document["kind"] == "memory"
        assert document["breaking_factor"] == local.breaking_factor
        assert document["probes"] == [[factor, ok] for factor, ok in local.probes]

    def test_search_minimal_horizon(self, service):
        _, client, _ = service
        problem = _sweep(1)[0]
        document = client.search(problem, kind="horizon")
        assert document["minimal_horizon"] == minimal_horizon(problem)

    def test_stats_reflect_served_traffic(self, service):
        _, client, runtime = service
        problems = _sweep(2)
        client.analyze_many(problems)
        stats = client.stats()
        assert stats["server"]["requests"] >= 1
        assert stats["queue"]["submitted"] == 2
        assert stats["queue"]["completed"] == 2
        assert stats["runtime"]["jobs_completed"] == 2
        assert stats["runtime"]["workers"] == 1
        assert stats["runtime"]["cache"]["misses"] == 2

    @pytest.mark.parametrize("priority", [5, "high"])
    def test_a_priority_key_is_ignored_like_any_unknown_key(self, service, priority):
        """An older client still sends ``priority``; the queue is FIFO."""
        _, client, _ = service
        problem = _sweep(1)[0]
        document = {"problem": problem_to_dict(problem)}
        plain = client._request("POST", "/analyze", document)
        ranked = client._request("POST", "/analyze", {**document, "priority": priority})
        assert ranked["schedule"]["entries"] == plain["schedule"]["entries"]
        assert ranked["makespan"] == plain["makespan"] == analyze(problem).makespan
        batch = client._request(
            "POST", "/batch", {"problems": [document["problem"]], "priority": priority}
        )
        assert batch["schedules"][0]["entries"] == plain["schedule"]["entries"]

    def test_priority_parameter_is_retired_from_the_client(self, service):
        from repro.core.kernel import compile_problem

        _, client, _ = service
        problem = _sweep(1)[0]
        kernel = compile_problem(problem)
        probe = kernel.with_overlay(kernel.scaled_demand_overlay(1.5))
        calls = [
            lambda: client.analyze(problem, priority=1),
            lambda: client.analyze_many([problem], priority=1),
            lambda: client.analyze_many_deltas([probe], priority=1),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="priority"):
                call()

    def test_search_at_float_resolution_terminates(self, service):
        """A tolerance below float resolution stops where the midpoint does."""
        _, client, _ = service
        problem = fixed_ls_workload(16, 4, core_count=4, seed=1).to_problem()
        horizon = int(minimal_horizon(problem) * 1.5)
        document = client.search(
            problem, kind="memory", horizon=horizon, max_factor=16.0, tolerance=1e-300
        )
        local = memory_sensitivity(
            problem.with_horizon(horizon), max_factor=16.0, tolerance=1e-300
        )
        assert document["probes"] == [[factor, ok] for factor, ok in local.probes]


class TestWarmBatchTransactionBudget:
    """Acceptance: a warm ``POST /batch`` of K cached jobs is O(1) transactions."""

    def test_warm_batch_performs_constant_store_transactions(self, tmp_path):
        from repro.engine import ResultCache

        # memory_limit=0 forces every lookup through the persistent store, so
        # the transaction counter measures real storage round trips; the
        # .sqlite suffix pins the SQLite backend (the O(1) budget is its
        # contract — the JSON fallback touches one file per job)
        cache = ResultCache(path=tmp_path / "cache.sqlite", memory_limit=0)
        runtime = EngineRuntime(max_workers=1, cache=cache)
        server = AnalysisServer(runtime, port=0).start()
        client = ServiceClient(server.url, timeout=30)
        try:
            problems = _sweep(8)
            client.analyze_many(problems)  # cold: compute + one put_many
            warm_start_txn = cache.stats.transactions
            warm_start_batches = server.queue.stats().batches
            schedules = client.analyze_many(problems)  # warm: all K from the store
            assert len(schedules) == 8
            assert cache.stats.disk_hits >= 8
            # the whole K-job batch cost one batched lookup — not O(K)
            assert cache.stats.transactions - warm_start_txn == 1
            # and every job was answered at submission: the warm burst
            # drained no batch
            assert server.queue.stats().batches - warm_start_batches == 0
        finally:
            server.close()
            runtime.close()

    def test_stats_expose_disk_occupancy(self, service):
        _, client, _ = service
        client.analyze_many(_sweep(2))
        stats = client.stats()
        assert stats["runtime"]["cache"]["disk_entries"] == 2
        assert stats["runtime"]["cache"]["disk_bytes"] > 0
        assert stats["runtime"]["cache"]["transactions"] >= 1


class TestByteForByteAcceptance:
    def test_service_reproduces_in_process_batch_json_exactly(self, tmp_path):
        """The acceptance criterion: shared cache, identical JSON report."""
        problems = _sweep(3)
        cache_dir = tmp_path / "shared-cache"
        local = analyze_many(problems, max_workers=1, cache=cache_dir)
        runtime = EngineRuntime(max_workers=1, cache=cache_dir)
        server = AnalysisServer(runtime, port=0).start()
        try:
            client = ServiceClient(server.url, timeout=30)
            remote = client.analyze_many(problems)
        finally:
            server.close()
            runtime.close()
        local_json = json.dumps([s.to_dict() for s in local], sort_keys=True)
        remote_json = json.dumps([s.to_dict() for s in remote], sort_keys=True)
        assert remote_json == local_json  # byte-for-byte, stats included
        # and the service did it without a single analyzer invocation
        assert runtime.stats().jobs_run == 0


class TestErrors:
    def test_unknown_endpoint_404(self, service):
        server, _, _ = service
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(f"{server.url}/nope", timeout=10)
        assert info.value.code == 404

    def test_wrong_method_405(self, service):
        server, _, _ = service
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(f"{server.url}/analyze", timeout=10)  # GET on POST
        assert info.value.code == 405

    def test_bad_json_400(self, service):
        server, _, _ = service
        request = urllib.request.Request(
            f"{server.url}/analyze", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400

    def test_missing_problem_400_with_message(self, service):
        _, client, _ = service
        with pytest.raises(ServiceError, match="problem"):
            client._request("POST", "/analyze", {"algorithm": "incremental"})

    def test_sensitivity_without_horizon_400(self, service):
        _, client, _ = service
        with pytest.raises(ServiceError, match="horizon"):
            client.search(_sweep(1)[0], kind="memory")

    def test_infinite_max_factor_422(self, service):
        _, client, _ = service
        problem = _sweep(1)[0]
        # json.dumps writes float("inf") as the literal Infinity, which the
        # server's json.loads accepts
        with pytest.raises(ServiceError, match="max_factor") as info:
            client.search(problem, kind="memory", horizon=10**6, max_factor=float("inf"))
        assert info.value.status == 422

    @pytest.mark.parametrize("parameter", ["max_factor", "tolerance"])
    def test_nan_search_parameter_422(self, service, parameter):
        """A NaN passes no ordered comparison, so it must be refused by name."""
        _, client, _ = service
        with pytest.raises(ServiceError, match=parameter) as info:
            client.search(
                _sweep(1)[0], kind="memory", horizon=10**6, **{parameter: float("nan")}
            )
        assert info.value.status == 422

    def test_speculation_above_the_ceiling_422(self, service):
        """Each level doubles a generation's probes; the driver refuses past 8."""
        _, client, _ = service
        with pytest.raises(ServiceError, match="speculation") as info:
            client.search(_sweep(1)[0], kind="memory", horizon=10**6, speculation=9)
        assert info.value.status == 422

    @pytest.mark.parametrize("field", ["horizon", "speculation"])
    def test_infinite_integer_field_400(self, service, field):
        """``int(Infinity)`` raises OverflowError: a client error, named, not a 500."""
        _, client, _ = service
        with pytest.raises(ServiceError, match=field) as info:
            client.search(_sweep(1)[0], kind="memory", **{field: float("inf")})
        assert info.value.status == 400

    @staticmethod
    def _post_with_content_length(server, value: bytes) -> bytes:
        """Send a bodiless ``POST /analyze`` with a raw header; read to EOF."""
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(
                b"POST /analyze HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Type: application/json\r\nContent-Length: "
                + value
                + b"\r\n\r\n"
            )
            # the body cannot be framed, so the server closes the connection
            # after its reply: a reply left open times the read out
            chunks = []
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks)

    def test_negative_content_length_400(self, service):
        """``rfile.read(-1)`` would hold the handler until the client hangs up."""
        server, _, _ = service
        reply = self._post_with_content_length(server, b"-1")
        assert reply.startswith(b"HTTP/1.1 400"), reply
        assert b"invalid Content-Length -1" in reply

    def test_non_numeric_content_length_400_and_closes(self, service):
        """Any body it carried would be read as the connection's next request."""
        server, client, _ = service
        reply = self._post_with_content_length(server, b"ten")
        assert reply.startswith(b"HTTP/1.1 400"), reply
        assert b"invalid Content-Length ten" in reply
        assert client.healthz()["status"] == "ok"

    def test_unknown_search_kind_400(self, service):
        _, client, _ = service
        with pytest.raises(ServiceError, match="kind"):
            client.search(_sweep(1)[0], kind="sideways")

    def test_failing_algorithm_422(self, service):
        def _fail(problem):
            raise ValueError("server-side boom")

        register_algorithm("svc-server-fail", _fail, overwrite=True)
        _, client, _ = service
        with pytest.raises(ServiceError, match="boom"):
            client.analyze(_sweep(1)[0], algorithm="svc-server-fail")

    def test_batch_partial_failure_preserves_results(self, service):
        def _fragile(problem):
            if problem.horizon is not None:
                raise ValueError("rejected by fragile")
            return analyze(problem)

        register_algorithm("svc-server-fragile", _fragile, overwrite=True)
        _, client, _ = service
        problems = _sweep(3)
        problems[1] = problems[1].with_horizon(10_000_000)
        with pytest.raises(BatchExecutionError) as info:
            client.analyze_many(problems, algorithm="svc-server-fragile")
        assert sorted(info.value.failures) == [1]
        assert info.value.results[0] is not None
        assert info.value.results[1] is None
        assert info.value.results[2] is not None

    def test_arbiter_the_document_cannot_carry_is_refused_before_sending(self, service):
        """The problem document names the arbiter; custom weights would be lost."""
        from repro.arbiter import WeightedRoundRobinArbiter
        from repro.core.kernel import compile_problem

        server, client, _ = service
        problem = fixed_ls_workload(16, 4, core_count=4, seed=1).to_problem()
        weighted = problem.with_arbiter(WeightedRoundRobinArbiter(weights={0: 3}))
        kernel = compile_problem(weighted)
        probe = kernel.with_overlay(kernel.scaled_demand_overlay(1.5))
        calls = [
            lambda: client.analyze(weighted),
            lambda: client.analyze_many([problem, weighted]),
            lambda: client.analyze_many_deltas([probe]),
            lambda: client.search(weighted, kind="horizon"),
        ]
        for call in calls:
            with pytest.raises(ServiceError, match="'weighted-round-robin'"):
                call()
        assert server._requests == 0  # refused before any request was sent
        default = problem.with_arbiter(WeightedRoundRobinArbiter())
        assert client.analyze(default).makespan == analyze(default).makespan

    def test_unreachable_server_raises_service_error(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)  # discard port
        with pytest.raises(ServiceError, match="cannot reach"):
            client.healthz()

    def test_invalid_base_url_rejected(self):
        with pytest.raises(ServiceError):
            ServiceClient("ftp://example.com")

    def test_bare_host_port_needs_a_scheme(self):
        with pytest.raises(ServiceError, match="http"):
            ServiceClient("hostA:8517")

    def test_base_url_is_trimmed_of_whitespace_and_trailing_slash(self, service):
        server, _, _ = service
        client = ServiceClient(f"  {server.url}/ ", timeout=10)
        assert client.base_url == server.url
        assert client.healthz()["status"] == "ok"


class TestServerLifecycle:
    def test_close_is_idempotent(self, tmp_path):
        server = AnalysisServer(port=0).start()
        url = server.url
        ServiceClient(url, timeout=10).healthz()
        server.close()
        server.close()
        with pytest.raises(ServiceError):
            ServiceClient(url, timeout=0.5).healthz()

    def test_server_owns_default_runtime(self):
        server = AnalysisServer(port=0)
        assert server.runtime is not None
        server.close()
        assert server.runtime.closed

    def test_keep_alive_replies_are_not_held_for_a_delayed_ack(self, service):
        """Each reply leaves in two writes (headers, body); with Nagle's
        algorithm on, the body waits for the client's delayed ACK of the
        headers, ~40 ms per request on a reused connection."""
        server, _, _ = service
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        latencies = []
        try:
            for _ in range(11):
                started = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                latencies.append(time.perf_counter() - started)
                assert response.status == 200
        finally:
            connection.close()
        assert statistics.median(latencies[1:]) < 0.020

    def test_close_returns_promptly(self):
        server = AnalysisServer(port=0).start()
        ServiceClient(server.url, timeout=10).healthz()
        started = time.perf_counter()
        server.close()
        assert time.perf_counter() - started < 0.4

    def test_shared_runtime_not_closed_by_server(self):
        with EngineRuntime(max_workers=1) as runtime:
            server = AnalysisServer(runtime, port=0)
            server.close()
            assert not runtime.closed
