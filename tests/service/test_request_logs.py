"""Structured JSONL request logging and server-side trace persistence.

The server replaces :class:`BaseHTTPRequestHandler`'s stderr access-log lines
with quiet-by-default structured logs through :mod:`repro.obs`: one JSON
object per request (method, path, status, duration, trace id), to stderr with
``quiet=False`` and to ``requests-<port>.jsonl``/``spans-<port>.jsonl`` files
when a ``trace_dir`` is configured.
"""

from __future__ import annotations

import io
import json
import sys
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.generators import fixed_ls_workload
from repro.service import AnalysisServer, EngineRuntime, ServiceClient


def _problem():
    return fixed_ls_workload(16, 4, core_count=4, seed=1).to_problem()


def _get(url: str) -> int:
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status


class TestQuietByDefault:
    def test_no_stderr_output_per_request(self, capfd):
        runtime = EngineRuntime(max_workers=1)
        with AnalysisServer(runtime).start() as server:
            assert _get(f"{server.url}/healthz") == 200
            assert _get(f"{server.url}/stats") == 200
        runtime.close()
        captured = capfd.readouterr()
        assert captured.err == ""
        assert captured.out == ""

    def test_request_log_disabled_without_sinks(self):
        runtime = EngineRuntime(max_workers=1)
        with AnalysisServer(runtime).start() as server:
            assert not server._request_log.enabled
            assert not server._span_log.enabled
        runtime.close()


class TestVerboseStderrJsonl:
    def test_one_json_line_per_request(self, monkeypatch):
        stderr = io.StringIO()
        monkeypatch.setattr(sys, "stderr", stderr)
        runtime = EngineRuntime(max_workers=1)
        # quiet=False must bind the *patched* stderr, so construct inside
        with AnalysisServer(runtime, quiet=False).start() as server:
            assert _get(f"{server.url}/healthz") == 200
            with pytest.raises(urllib.error.HTTPError):
                _get(f"{server.url}/nowhere")
        runtime.close()
        records = [json.loads(line) for line in stderr.getvalue().splitlines()]
        assert [r["path"] for r in records] == ["/healthz", "/nowhere"]
        assert [r["status"] for r in records] == [200, 404]
        for record in records:
            assert record["event"] == "request"
            assert record["method"] == "GET"
            assert record["duration_ms"] >= 0
            assert "trace_id" in record  # None without a traceparent/trace_dir


class TestTraceDirPersistence:
    def test_request_and_span_files_written(self, tmp_path):
        runtime = EngineRuntime(max_workers=1)
        server = AnalysisServer(runtime, trace_dir=tmp_path / "traces").start()
        try:
            client = ServiceClient(server.url, timeout=30)
            client.analyze(_problem())
            client.stats()
            port = server.port
        finally:
            server.close()
            runtime.close()
        requests_file = tmp_path / "traces" / f"requests-{port}.jsonl"
        spans_file = tmp_path / "traces" / f"spans-{port}.jsonl"
        records = [json.loads(line) for line in requests_file.read_text().splitlines()]
        assert [r["path"] for r in records] == ["/analyze", "/stats"]
        assert all(r["status"] == 200 for r in records)
        # with trace_dir every request is traced even without a traceparent
        assert all(isinstance(r["trace_id"], str) for r in records)
        span_records = [json.loads(line) for line in spans_file.read_text().splitlines()]
        names = {r["name"] for r in span_records}
        assert "http.request" in names
        assert "runtime.batch" in names  # the /analyze work under its request
        trace_ids = {r["trace_id"] for r in span_records}
        assert trace_ids == {r["trace_id"] for r in records}

    def test_trace_returned_only_for_traceparent_requests(self, tmp_path):
        runtime = EngineRuntime(max_workers=1)
        server = AnalysisServer(runtime, trace_dir=tmp_path / "traces").start()
        try:
            plain = json.loads(
                urllib.request.urlopen(f"{server.url}/stats", timeout=30).read()
            )
            assert "trace" not in plain  # trace_dir alone must not bloat responses

            header = obs.format_traceparent("ab" * 16, "cd" * 8)
            request = urllib.request.Request(
                f"{server.url}/stats", headers={obs.TRACEPARENT_HEADER: header}
            )
            stitched = json.loads(urllib.request.urlopen(request, timeout=30).read())
            assert {span["trace_id"] for span in stitched["trace"]} == {"ab" * 16}
            http_span = next(s for s in stitched["trace"] if s["name"] == "http.request")
            assert http_span["parent_id"] == "cd" * 8
        finally:
            server.close()
            runtime.close()

    def test_traceparent_without_trace_dir_still_stitches(self):
        runtime = EngineRuntime(max_workers=1)
        server = AnalysisServer(runtime).start()
        try:
            header = obs.format_traceparent("ef" * 16, None)
            request = urllib.request.Request(
                f"{server.url}/healthz", headers={obs.TRACEPARENT_HEADER: header}
            )
            document = json.loads(urllib.request.urlopen(request, timeout=30).read())
            assert [span["name"] for span in document["trace"]] == ["http.request"]
            assert document["trace"][0]["trace_id"] == "ef" * 16
        finally:
            server.close()
            runtime.close()
