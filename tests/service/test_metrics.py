"""Tests for the Prometheus ``GET /metrics`` endpoint and its renderer."""

from __future__ import annotations

import urllib.error
import urllib.request

import pytest

from repro import analyze_many
from repro.generators import fixed_ls_workload
from repro.service import (
    AnalysisServer,
    EngineRuntime,
    ServiceClient,
    render_prometheus_metrics,
)
from repro.service.metrics import METRICS_CONTENT_TYPE


def _parse(text: str):
    """{metric-name-with-labels: value} for every sample line."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)
    return samples


class TestRenderer:
    STATS = {
        "runtime": {
            "workers": 4,
            "pools_created": 1,
            "batches": 2,
            "jobs_completed": 7,
            "jobs_failed": 1,
            "jobs_run": 8,
            "latency_ewma_seconds": 0.125,
            "cache": {
                "memory_hits": 3,
                "disk_hits": 1,
                "misses": 8,
                "stores": 8,
                "corrupt": 0,
                "evictions": 2,
                "transactions": 5,
                "disk_entries": 6,
                "disk_bytes": 4096,
            },
        },
        "queue": {
            "submitted": 9,
            "completed": 7,
            "failed": 1,
            "coalesced": 1,
            "cancelled": 0,
            "batches": 2,
            "pending": 0,
            "in_flight": 0,
            "max_pending": 1024,
        },
        "server": {"requests": 12, "default_algorithm": "incremental", "version": "1.0"},
    }

    def test_counters_and_gauges(self):
        samples = _parse(render_prometheus_metrics(self.STATS))
        assert samples["repro_runtime_jobs_completed_total"] == 7
        assert samples["repro_runtime_jobs_failed_total"] == 1
        assert samples["repro_runtime_workers"] == 4
        assert samples["repro_runtime_latency_ewma_seconds"] == 0.125
        assert samples["repro_cache_memory_hits_total"] == 3
        assert samples["repro_cache_misses_total"] == 8
        assert samples["repro_cache_evictions_total"] == 2
        assert samples["repro_cache_transactions_total"] == 5
        assert samples["repro_cache_disk_entries"] == 6
        assert samples["repro_cache_disk_bytes"] == 4096
        assert samples["repro_queue_submitted_total"] == 9
        assert samples["repro_queue_pending"] == 0
        assert samples["repro_server_requests_total"] == 12

    def test_types_declared(self):
        text = render_prometheus_metrics(self.STATS)
        assert "# TYPE repro_runtime_jobs_completed_total counter" in text
        assert "# TYPE repro_queue_pending gauge" in text
        assert "# TYPE repro_cache_transactions_total counter" in text
        assert "# TYPE repro_cache_disk_entries gauge" in text
        assert "# TYPE repro_cache_disk_bytes gauge" in text
        assert "# TYPE repro_service_info gauge" in text

    def test_info_metric_labels(self):
        samples = _parse(render_prometheus_metrics(self.STATS))
        assert (
            samples['repro_service_info{version="1.0",algorithm="incremental"}']
            == 1
        )

    def test_null_latency_omitted_not_nan(self):
        stats = {**self.STATS, "runtime": {**self.STATS["runtime"], "latency_ewma_seconds": None}}
        text = render_prometheus_metrics(stats)
        assert "repro_runtime_latency_ewma_seconds" not in text
        assert "NaN" not in text and "None" not in text

    def test_cache_hit_rate_gauge(self):
        runtime = {
            **self.STATS["runtime"],
            "cache": {
                **self.STATS["runtime"]["cache"],
                "hits": 4,
                "lookups": 12,
                "hit_rate": 4 / 12,
            },
        }
        samples = _parse(render_prometheus_metrics({**self.STATS, "runtime": runtime}))
        assert samples["repro_cache_hits_total"] == 4
        assert samples["repro_cache_lookups_total"] == 12
        assert samples["repro_cache_hit_rate"] == pytest.approx(1 / 3)

    def test_histograms_rendered_prometheus_style(self):
        histogram = {"buckets": [[0.1, 2], [1.0, 3], ["+Inf", 4]], "sum": 2.65, "count": 4}
        stats = {
            **self.STATS,
            "runtime": {**self.STATS["runtime"], "latency_histogram": histogram},
            "queue": {**self.STATS["queue"], "wait_histogram": histogram},
            "server": {**self.STATS["server"], "request_histogram": histogram},
        }
        text = render_prometheus_metrics(stats)
        samples = _parse(text)
        for name in (
            "repro_job_latency_seconds",
            "repro_queue_wait_seconds",
            "repro_request_duration_seconds",
        ):
            assert f"# TYPE {name} histogram" in text
            assert samples[f'{name}_bucket{{le="0.1"}}'] == 2
            assert samples[f'{name}_bucket{{le="+Inf"}}'] == 4
            assert samples[f"{name}_sum"] == pytest.approx(2.65)
            assert samples[f"{name}_count"] == 4

    def test_missing_sections_render_cleanly(self):
        # a minimal /stats document (old server, or sections still warming
        # up) must not crash the renderer or emit malformed samples
        text = render_prometheus_metrics({})
        assert "repro_service_info" in text
        assert "None" not in text and "NaN" not in text
        samples = _parse(render_prometheus_metrics({"server": {"requests": 3}}))
        assert samples["repro_server_requests_total"] == 3
        assert not any(name.startswith("repro_job_latency_seconds") for name in samples)
        assert not any(name.startswith("repro_cache_hit_rate") for name in samples)

    def test_malformed_histogram_documents_skipped(self):
        for bad in (None, "x", {"buckets": "x"}, {"buckets": [[0.1], ["+Inf", "a"]]}):
            stats = {
                **self.STATS,
                "runtime": {**self.STATS["runtime"], "latency_histogram": bad},
            }
            text = render_prometheus_metrics(stats)
            assert "repro_job_latency_seconds_bucket" not in text

    def test_endpoint_records_from_an_older_server_are_not_rendered(self):
        """A ``/stats`` document that still lists cluster endpoints renders
        exactly like one without them."""
        endpoints = [
            {"url": "http://hostA:8517", "healthy": True, "jobs_completed": 3},
            {"url": "http://hostB:8517", "healthy": False, "jobs_completed": 0},
        ]
        older = {**self.STATS, "runtime": {**self.STATS["runtime"], "endpoints": endpoints}}
        text = render_prometheus_metrics(older)
        assert text == render_prometheus_metrics(self.STATS)
        assert "hostA" not in text and "endpoint" not in text

    def test_retired_runtime_keys_from_an_older_server_are_not_rendered(self):
        """The pool-backend and recycling keys no longer reach ``/metrics``."""
        retired = {"backend": "thread", "recycle_after": 100, "jobs_since_recycle": 8}
        older = {**self.STATS, "runtime": {**self.STATS["runtime"], **retired}}
        text = render_prometheus_metrics(older)
        assert text == render_prometheus_metrics(self.STATS)
        assert "recycle" not in text and "backend=" not in text

    @pytest.mark.parametrize("workers", [1, 2])
    def test_live_runtime_stats_render_at_every_worker_count(self, workers):
        problems = [
            fixed_ls_workload(16, 4, core_count=4, seed=seed).to_problem() for seed in range(3)
        ]
        with EngineRuntime(max_workers=workers) as runtime:
            cold = runtime.stats().to_dict()
            analyze_many(problems, runtime=runtime)
            warm = runtime.stats().to_dict()
        for record, jobs in ((cold, 0), (warm, 3)):
            text = render_prometheus_metrics({"runtime": record})
            samples = _parse(text)
            assert samples["repro_runtime_jobs_completed_total"] == jobs
            assert samples["repro_runtime_workers"] == workers
            assert "{backend=" not in text and ",backend=" not in text
            assert "None" not in text and "NaN" not in text
            assert "endpoint" not in text


@pytest.fixture
def service():
    runtime = EngineRuntime(max_workers=1)
    server = AnalysisServer(runtime, port=0).start()
    yield server, ServiceClient(server.url, timeout=30)
    server.close()
    runtime.close()


class TestEndpoint:
    def test_metrics_over_http(self, service):
        server, client = service
        problem = fixed_ls_workload(16, 4, core_count=4, seed=1).to_problem()
        client.analyze(problem)
        text = client.metrics()
        samples = _parse(text)
        assert samples["repro_runtime_jobs_completed_total"] >= 1
        assert samples["repro_queue_submitted_total"] >= 1
        assert any(name.startswith("repro_service_info{") for name in samples)

    def test_live_histograms_and_hit_rate_exposed(self, service):
        server, client = service
        problem = fixed_ls_workload(16, 4, core_count=4, seed=1).to_problem()
        client.analyze(problem)
        client.analyze(problem)  # second round: a cache hit
        samples = _parse(client.metrics())
        assert samples['repro_job_latency_seconds_bucket{le="+Inf"}'] >= 1
        assert samples['repro_queue_wait_seconds_bucket{le="+Inf"}'] >= 1
        assert samples['repro_request_duration_seconds_bucket{le="+Inf"}'] >= 2
        assert samples["repro_request_duration_seconds_count"] >= 2
        assert 0.0 <= samples["repro_cache_hit_rate"] <= 1.0
        # /stats carries the same histograms as JSON
        stats = client.stats()
        assert stats["runtime"]["latency_histogram"]["count"] >= 1
        assert stats["queue"]["wait_histogram"]["count"] >= 1
        assert stats["server"]["request_histogram"]["count"] >= 2
        cache = stats["runtime"]["cache"]
        assert cache["lookups"] == cache["hits"] + cache["misses"]
        assert cache["hit_rate"] == pytest.approx(cache["hits"] / cache["lookups"])

    def test_content_type_is_text_exposition(self, service):
        server, _ = service
        with urllib.request.urlopen(f"{server.url}/metrics", timeout=30) as response:
            assert response.headers["Content-Type"] == METRICS_CONTENT_TYPE
            assert response.read().startswith(b"# HELP")

    def test_post_method_not_allowed(self, service):
        server, _ = service
        request = urllib.request.Request(f"{server.url}/metrics", data=b"{}", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 405
