"""Distributed-trace stitching: one client-driven run must yield ONE trace.

The acceptance scenario of the observability subsystem: under one ``cli.*``
root span, a client runs a search on one server and a delta batch on
another.  The client-side trace has a single trace id whose spans cover
client, server, queue, runtime and analyzer layers, with the server-side
spans parenting correctly under the client's request spans — and tracing
must not perturb the analysis (verdicts bit-identical).
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.analysis import SearchDriver, memory_sensitivity
from repro.core import compile_problem
from repro.generators import fixed_ls_workload
from repro.service import AnalysisServer, EngineRuntime, ServiceClient


@pytest.fixture
def fleet():
    servers = [AnalysisServer(EngineRuntime(max_workers=1)) for _ in range(2)]
    for server in servers:
        server.start()
    yield servers
    for server in servers:
        server.close()


def _problem():
    return fixed_ls_workload(24, 4, core_count=4, seed=3).to_problem().with_horizon(100_000)


def _traced_client_run(fleet):
    """A served search on one server and a served delta batch on the other."""
    problem = _problem()
    kernel = compile_problem(problem)
    probes = [
        kernel.with_overlay(kernel.scaled_demand_overlay(factor), name=f"d-{factor}")
        for factor in (1.0, 2.0)
    ]
    tracer = obs.Tracer(service="cli")
    with tracer.activate():
        with obs.span("cli.search"):
            result = ServiceClient(fleet[0].url).search(problem, kind="memory")
            ServiceClient(fleet[1].url).analyze_many_deltas(probes)
    return tracer, result


class TestClientTraceStitching:
    def test_single_stitched_trace_covers_every_layer(self, fleet):
        tracer, _ = _traced_client_run(fleet)
        spans = tracer.spans
        assert len({span.trace_id for span in spans}) == 1

        names = {span.name for span in spans}
        # one span family per layer: client, server, queue, runtime,
        # analyzer — plus the compile/event-loop detail spans
        for required in (
            "cli.search",
            "client.request",
            "http.request",
            "queue.wait",
            "runtime.batch",
            "analyze.incremental",
            "kernel.compile",
            "incremental.event_loop",
        ):
            assert required in names, f"missing {required} in {sorted(names)}"

        processes = {span.process for span in spans}
        assert "cli" in processes
        assert sum(1 for process in processes if process.startswith("server:")) == 2

    def test_no_orphan_spans_single_root(self, fleet):
        tracer, _ = _traced_client_run(fleet)
        spans = tracer.spans
        ids = {span.span_id for span in spans}
        orphans = [
            span for span in spans if span.parent_id is not None and span.parent_id not in ids
        ]
        assert orphans == []
        roots = [span for span in spans if span.parent_id is None]
        assert [root.name for root in roots] == ["cli.search"]

    def test_server_spans_parent_under_client_requests(self, fleet):
        tracer, _ = _traced_client_run(fleet)
        spans = tracer.spans
        by_id = {span.span_id: span for span in spans}
        http_spans = [span for span in spans if span.name == "http.request"]
        assert http_spans
        for span in http_spans:
            parent = by_id[span.parent_id]
            assert parent.name == "client.request"
            assert parent.process == "cli"
        # and the queue/runtime work on the server parents (transitively)
        # under its own http.request span
        for span in spans:
            if span.process.startswith("server:") and span.name != "http.request":
                cursor = span
                seen = set()
                while cursor.parent_id is not None and cursor.span_id not in seen:
                    seen.add(cursor.span_id)
                    cursor = by_id[cursor.parent_id]
                    if cursor.name == "http.request":
                        break
                assert cursor.name == "http.request", (
                    f"{span.name} on {span.process} does not reach an http.request"
                )

    def test_verdicts_bit_identical_to_untraced_local_run(self, fleet):
        _, traced = _traced_client_run(fleet)
        local = memory_sensitivity(
            _problem(), driver=SearchDriver("incremental", max_workers=1)
        )
        assert traced["breaking_factor"] == local.breaking_factor
        assert traced["makespan_at_break"] == local.makespan_at_break
        assert traced["probes"] == [[factor, ok] for factor, ok in local.probes]

    def test_exported_trace_validates_against_schema(self, fleet, tmp_path):
        import json

        tracer, _ = _traced_client_run(fleet)
        path = tmp_path / "client-trace.json"
        obs.write_chrome_trace(tracer.spans, path)
        assert obs.validate_chrome_trace(json.loads(path.read_text())) == []
