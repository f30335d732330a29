"""Tests for the cluster dispatcher and the runtime's ``remote`` backend.

The fleet here is in-process: real :class:`AnalysisServer` instances on
ephemeral ports with ``inline`` runtimes, driven over real HTTP.  The
subprocess variant — including killing a server mid-run — lives in
``test_cluster_integration.py``.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import analyze_many
from repro.analysis import SearchDriver, memory_sensitivity, minimal_horizon
from repro.engine.jobs import AnalysisJob
from repro.errors import BatchExecutionError, ServiceError
from repro.generators import fixed_ls_workload
from repro.service import (
    AnalysisServer,
    ClusterDispatcher,
    EngineRuntime,
    ServiceClient,
    normalize_endpoint,
)

#: ports from the reserved block: nothing listens there, connections refuse fast
DEAD = ["http://127.0.0.1:1", "http://127.0.0.1:2"]


def _sweep(count: int, tasks: int = 16):
    return [
        fixed_ls_workload(tasks, 4, core_count=4, seed=seed).to_problem()
        for seed in range(count)
    ]


def _jobs(problems, algorithm="incremental"):
    return [
        AnalysisJob(problem=problem, algorithm=algorithm, index=index)
        for index, problem in enumerate(problems)
    ]


@pytest.fixture
def fleet():
    """Two running servers (inline runtimes, ephemeral ports)."""
    servers = [AnalysisServer(EngineRuntime(backend="inline"), port=0).start() for _ in range(2)]
    yield servers
    for server in servers:
        server.close()


class TestNormalizeEndpoint:
    def test_bare_host_port_gets_http_scheme(self):
        assert normalize_endpoint("hostA:8517") == "http://hostA:8517"

    def test_full_url_and_trailing_slash(self):
        assert normalize_endpoint("https://hostB:1/") == "https://hostB:1"

    def test_empty_rejected(self):
        with pytest.raises(ServiceError):
            normalize_endpoint("   ")


class TestConstruction:
    def test_needs_endpoints(self):
        with pytest.raises(ServiceError):
            ClusterDispatcher([])
        with pytest.raises(ServiceError):
            EngineRuntime(backend="remote")

    def test_duplicate_endpoints_rejected(self):
        with pytest.raises(ServiceError):
            ClusterDispatcher(["hostA:1", "http://hostA:1/"])

    def test_remote_rejects_max_workers(self):
        with pytest.raises(ServiceError):
            EngineRuntime(backend="remote", endpoints=DEAD, max_workers=2)

    def test_local_backends_reject_endpoints(self):
        with pytest.raises(ServiceError):
            EngineRuntime(backend="inline", endpoints=DEAD)

    def test_capacity_sizes_workers(self):
        runtime = EngineRuntime(backend="remote", endpoints=DEAD, max_in_flight=3)
        assert runtime.workers == 2 * 3 == runtime.dispatcher.capacity
        runtime.close()

    def test_bad_bounds_rejected(self):
        with pytest.raises(ServiceError):
            ClusterDispatcher(DEAD, max_in_flight=0)
        with pytest.raises(ServiceError):
            ClusterDispatcher(DEAD, retries=-1)
        with pytest.raises(ServiceError):
            ClusterDispatcher(DEAD, quarantine_seconds=-1)


class TestDistributedBatch:
    def test_bit_identical_and_ordered(self, fleet):
        problems = _sweep(6)
        with EngineRuntime(backend="remote", endpoints=[s.url for s in fleet]) as runtime:
            remote = analyze_many(problems, runtime=runtime)
        local = analyze_many(problems, max_workers=1)
        assert [r.to_dict()["entries"] for r in remote] == [
            l.to_dict()["entries"] for l in local
        ]
        assert [r.problem_name for r in remote] == [p.name for p in problems]

    def test_load_spreads_across_endpoints(self, fleet):
        problems = _sweep(8)
        with EngineRuntime(
            backend="remote", endpoints=[s.url for s in fleet], max_in_flight=1
        ) as runtime:
            runtime.run(_jobs(problems))
            records = runtime.stats().to_dict()["endpoints"]
        assert len(records) == 2
        # window 1 per endpoint: neither server can have absorbed the batch alone
        assert all(record["jobs_completed"] >= 1 for record in records)
        assert sum(record["jobs_completed"] for record in records) == 8

    def test_runtime_telemetry_counts_remote_jobs(self, fleet):
        problems = _sweep(4)
        with EngineRuntime(backend="remote", endpoints=[s.url for s in fleet]) as runtime:
            runtime.run(_jobs(problems))
            stats = runtime.stats()
        assert stats.backend == "remote"
        assert stats.jobs_completed == 4
        assert stats.latency_ewma_seconds is not None
        assert stats.to_dict()["endpoints"] is not None

    def test_closed_runtime_rejects_work(self, fleet):
        runtime = EngineRuntime(backend="remote", endpoints=[s.url for s in fleet])
        runtime.close()
        with pytest.raises(ServiceError):
            runtime.run(_jobs(_sweep(1)))


class TestDistributedSearch:
    def test_probe_trace_identical_to_serial(self, fleet):
        problem = _sweep(1)[0]
        horizon = int(minimal_horizon(problem) * 1.2)
        with EngineRuntime(backend="remote", endpoints=[s.url for s in fleet]) as runtime:
            remote = memory_sensitivity(
                problem.with_horizon(horizon),
                max_factor=8.0,
                tolerance=0.25,
                driver=SearchDriver(runtime=runtime),
            )
        serial = memory_sensitivity(
            problem.with_horizon(horizon),
            max_factor=8.0,
            tolerance=0.25,
            driver=SearchDriver(batch=False),
        )
        assert remote == serial


class TestFailover:
    def test_job_errors_are_not_retried(self, fleet):
        """HTTP 4xx is the job's fault: partial-failure contract, no failover."""
        problems = _sweep(3)
        jobs = _jobs(problems)
        jobs[1].algorithm = "no-such-algorithm"
        with EngineRuntime(backend="remote", endpoints=[s.url for s in fleet]) as runtime:
            with pytest.raises(BatchExecutionError) as excinfo:
                runtime.run(jobs)
            records = runtime.stats().to_dict()["endpoints"]
        error = excinfo.value
        assert sorted(error.failures) == [1]
        assert problems[1].name in error.failures[1]
        assert [schedule is not None for schedule in error.results] == [True, False, True]
        # the bad job burned exactly one request: it was never resubmitted
        assert sum(record["jobs_failed"] for record in records) == 1
        # and no endpoint was quarantined over it
        assert all(record["healthy"] for record in records)

    def test_all_endpoints_down_is_clean_service_error(self):
        with EngineRuntime(
            backend="remote", endpoints=DEAD, quarantine_seconds=0.05
        ) as runtime:
            with pytest.raises(ServiceError, match="unavailable"):
                runtime.run(_jobs(_sweep(2)))

    def test_total_outage_aborts_fast_not_per_job(self):
        """One failed sweep condemns the run; queued jobs must not each re-pay
        the quarantine + probe latency before the ServiceError surfaces."""
        import time

        started = time.monotonic()
        with EngineRuntime(
            backend="remote", endpoints=DEAD, quarantine_seconds=0.3, max_in_flight=1
        ) as runtime:
            with pytest.raises(ServiceError, match="unavailable"):
                runtime.run(_jobs(_sweep(10)))
        # 10 jobs over capacity 2: serial per-job sweeps would take many
        # quarantine windows; the cached all-down verdict keeps it to ~one
        assert time.monotonic() - started < 5.0

    def test_total_outage_probes_each_endpoint_once(self):
        """One failed sweep over the fleet ends the run for every dispatch
        thread: two threads must not take turns re-probing (and so
        re-quarantining) the endpoints the other already found down."""
        for _ in range(50):
            probes = Counter()

            def counting_client(url, timeout):
                client = ServiceClient(url, timeout=timeout)
                healthz = client.healthz

                def counted_healthz():
                    probes[url] += 1
                    return healthz()

                client.healthz = counted_healthz
                return client

            dispatcher = ClusterDispatcher(
                DEAD,
                quarantine_seconds=0.05,
                max_in_flight=1,
                client_factory=counting_client,
            )
            with dispatcher:
                with pytest.raises(ServiceError, match="unavailable"):
                    dispatcher.run(_jobs(_sweep(10)))
            assert max(probes.values()) <= 1, dict(probes)

    def test_transient_blip_recovers_instead_of_aborting(self, fleet):
        """A freshly quarantined fleet is probed back to life, not given up on.

        Regression test: every endpoint being momentarily quarantined (e.g.
        overlapping restarts) must trigger the /healthz probe sweep — the
        all-down verdict is only for fleets whose probes actually fail.
        """
        import time

        dispatcher = ClusterDispatcher(
            [server.url for server in fleet], quarantine_seconds=0.2
        )
        try:
            # simulate transient endpoint errors: both endpoints sit in a
            # fresh quarantine although the servers are alive
            with dispatcher._cond:
                for endpoint in dispatcher._endpoints:
                    endpoint.healthy = False
                    endpoint.quarantined_until = time.monotonic() + 0.2
            results = dispatcher.run(_jobs(_sweep(3)))
            assert all(schedule is not None for schedule in results)
            assert all(record["healthy"] for record in dispatcher.stats()["endpoints"])
        finally:
            dispatcher.close()

    def test_parameterized_arbiter_fails_cleanly_not_silently(self, fleet):
        """An arbiter the wire format cannot transport must not be analysed."""
        from repro.arbiter import WeightedRoundRobinArbiter

        problems = _sweep(3)
        problems[1] = problems[1].with_arbiter(WeightedRoundRobinArbiter(weights={0: 3}))
        with EngineRuntime(backend="remote", endpoints=[s.url for s in fleet]) as runtime:
            with pytest.raises(BatchExecutionError) as excinfo:
                runtime.run(_jobs(problems))
        error = excinfo.value
        assert sorted(error.failures) == [1]
        assert "parameters" in error.failures[1]
        # the healthy jobs completed; nothing wrong was cached for job 1
        assert [schedule is not None for schedule in error.results] == [True, False, True]

    def test_dead_endpoint_in_fleet_is_quarantined_and_work_reroutes(self, fleet):
        problems = _sweep(6)
        endpoints = [fleet[0].url, DEAD[0]]
        with EngineRuntime(
            backend="remote", endpoints=endpoints, quarantine_seconds=30.0
        ) as runtime:
            remote = runtime.run(_jobs(problems))
            records = {
                record["url"]: record for record in runtime.stats().to_dict()["endpoints"]
            }
        local = analyze_many(problems, max_workers=1)
        assert [r.to_dict()["entries"] for r in remote] == [
            l.to_dict()["entries"] for l in local
        ]
        assert records[DEAD[0]]["healthy"] is False
        assert records[DEAD[0]]["endpoint_errors"] >= 1
        assert records[fleet[0].url]["jobs_completed"] == 6

    def test_quarantined_endpoint_recovers_after_probe(self, fleet):
        victim, survivor = fleet
        port = victim.port
        victim.close()
        runtime = EngineRuntime(
            backend="remote",
            endpoints=[f"127.0.0.1:{port}", survivor.url],
            quarantine_seconds=0.1,
        )
        try:
            runtime.run(_jobs(_sweep(4)))
            down = {r["url"]: r for r in runtime.stats().to_dict()["endpoints"]}
            assert down[f"http://127.0.0.1:{port}"]["healthy"] is False
            # revive the endpoint on the same port and let the quarantine lapse
            revived = AnalysisServer(EngineRuntime(backend="inline"), port=port).start()
            try:
                import time

                deadline = time.monotonic() + 10.0
                recovered_record = None
                while time.monotonic() < deadline:
                    time.sleep(0.15)  # > quarantine_seconds: the re-probe is due
                    runtime.run(_jobs(_sweep(4)))
                    records = {
                        r["url"]: r for r in runtime.stats().to_dict()["endpoints"]
                    }
                    record = records[f"http://127.0.0.1:{port}"]
                    if record["healthy"] and record["jobs_completed"] >= 1:
                        recovered_record = record
                        break
                assert recovered_record is not None, records
            finally:
                revived.close()
        finally:
            runtime.close()

    def test_probe_reports_fleet_health(self, fleet):
        dispatcher = ClusterDispatcher([fleet[0].url, DEAD[0]])
        try:
            records = {record["url"]: record for record in dispatcher.probe()}
            assert records[fleet[0].url]["healthy"] is True
            assert records[fleet[0].url]["stats"]["runtime"]["backend"] == "inline"
            assert records[DEAD[0]]["healthy"] is False
            assert records[DEAD[0]]["stats"] is None
        finally:
            dispatcher.close()

    def test_closed_dispatcher_rejects_work(self, fleet):
        dispatcher = ClusterDispatcher([s.url for s in fleet])
        dispatcher.close()
        with pytest.raises(ServiceError):
            dispatcher.run(_jobs(_sweep(1)))
