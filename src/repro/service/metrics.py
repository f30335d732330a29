"""Prometheus text-format rendering of the service telemetry.

:func:`render_prometheus_metrics` turns the JSON document served by
``GET /stats`` (runtime, queue and server sections) into the Prometheus text
exposition format, so a standard scraper pointed at ``GET /metrics`` sees the
same counters operators already read as JSON — no client library, no extra
dependency, just deterministic text.

Naming follows the Prometheus conventions: monotonically increasing values
get a ``_total`` suffix and ``counter`` type, point-in-time values are
``gauge``\\ s, and static metadata rides on the ``repro_service_info`` info
metric's labels.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["METRICS_CONTENT_TYPE", "render_prometheus_metrics"]

#: content type of the text exposition format (version 0.0.4 is the text one)
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: (stats-section key, metric name, type, help) for every numeric series
_SERIES: Tuple[Tuple[str, str, str, str, str], ...] = (
    # runtime
    ("runtime", "workers", "repro_runtime_workers", "gauge", "Configured worker count"),
    ("runtime", "pools_created", "repro_runtime_pools_created_total", "counter", "Worker pools constructed so far"),
    ("runtime", "batches", "repro_runtime_batches_total", "counter", "Batches executed through the runtime"),
    ("runtime", "jobs_completed", "repro_runtime_jobs_completed_total", "counter", "Jobs that completed with a schedule"),
    ("runtime", "jobs_failed", "repro_runtime_jobs_failed_total", "counter", "Jobs that raised in a worker"),
    ("runtime", "latency_ewma_seconds", "repro_runtime_latency_ewma_seconds", "gauge", "EWMA of per-job analyzer wall time"),
    ("runtime", "kernel_compilations", "repro_runtime_kernel_compilations_total", "counter", "Problem-kernel compilations in the service process"),
    ("runtime", "vector_sweeps", "repro_runtime_vector_sweeps_total", "counter", "Vectorized Jacobi sweeps executed in the service process"),
    ("runtime", "generation_passes", "repro_runtime_generation_passes_total", "counter", "Batched overlay-generation passes executed in the service process"),
    # queue
    ("queue", "submitted", "repro_queue_submitted_total", "counter", "Jobs submitted to the queue"),
    ("queue", "completed", "repro_queue_completed_total", "counter", "Queue futures resolved with a schedule"),
    ("queue", "failed", "repro_queue_failed_total", "counter", "Queue futures resolved with an error"),
    ("queue", "coalesced", "repro_queue_coalesced_total", "counter", "Submissions coalesced onto identical in-flight content"),
    ("queue", "cancelled", "repro_queue_cancelled_total", "counter", "Queue futures cancelled before running"),
    ("queue", "batches", "repro_queue_batches_total", "counter", "Drained dispatch batches"),
    ("queue", "pending", "repro_queue_pending", "gauge", "Jobs queued but not yet drained"),
    ("queue", "in_flight", "repro_queue_in_flight", "gauge", "Jobs drained and currently executing"),
    ("queue", "max_pending", "repro_queue_max_pending", "gauge", "Backpressure bound on queued jobs"),
    # server
    ("server", "requests", "repro_server_requests_total", "counter", "HTTP requests received"),
)

#: cache counters live nested under runtime.cache
_CACHE_SERIES: Tuple[Tuple[str, str, str], ...] = (
    ("memory_hits", "repro_cache_memory_hits_total", "Result-cache hits served from memory"),
    ("disk_hits", "repro_cache_disk_hits_total", "Result-cache hits served from disk"),
    ("misses", "repro_cache_misses_total", "Result-cache misses"),
    ("stores", "repro_cache_stores_total", "Schedules stored into the result cache"),
    ("corrupt", "repro_cache_corrupt_total", "Corrupt disk cache entries quarantined"),
    ("evictions", "repro_cache_evictions_total", "Cache entries evicted by the size budgets"),
    ("transactions", "repro_cache_transactions_total", "Persistent-store round trips (one per batch on SQLite)"),
    ("hits", "repro_cache_hits_total", "Result-cache hits (memory + disk)"),
    ("lookups", "repro_cache_lookups_total", "Result-cache lookups (hits + misses)"),
)

#: point-in-time occupancy of the persistent store (refreshed per /stats call)
_CACHE_GAUGES: Tuple[Tuple[str, str, str], ...] = (
    ("disk_entries", "repro_cache_disk_entries", "Entries resident in the persistent cache store"),
    ("disk_bytes", "repro_cache_disk_bytes", "Payload bytes resident in the persistent cache store"),
)

#: (section, key, metric name, help) for the latency histograms — serialized
#: by repro.obs.Histogram.to_dict() as {"buckets": [[le, cumulative]...],
#: "sum": ..., "count": ...} and rendered as native Prometheus histograms
_HISTOGRAM_SERIES: Tuple[Tuple[str, str, str, str], ...] = (
    ("runtime", "latency_histogram", "repro_job_latency_seconds", "Per-job analyzer wall time"),
    ("queue", "wait_histogram", "repro_queue_wait_seconds", "Submit-to-drain wait of queued jobs"),
    ("server", "request_histogram", "repro_request_duration_seconds", "HTTP request handling duration"),
)


def _format_value(value: Any) -> Optional[str]:
    if value is None or isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return repr(float(value)) if isinstance(value, float) else str(value)


def _escape_label(value: Any) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_prometheus_metrics(stats: Dict[str, Any]) -> str:
    """Render a ``/stats`` document in the Prometheus text exposition format.

    ``stats`` is the dict :meth:`AnalysisServer.handle_stats` produces
    (``runtime``/``queue``/``server`` sections).  Series whose value is
    absent or non-numeric (e.g. a ``latency_ewma_seconds`` of ``null`` before
    the first job) are omitted rather than rendered as ``NaN``.
    """
    runtime = stats.get("runtime") or {}
    lines: List[str] = []

    def emit(name: str, kind: str, help_text: str, value: Any) -> None:
        text = _format_value(value)
        if text is None:
            return
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name} {text}")

    def emit_histogram(name: str, help_text: str, document: Any) -> None:
        if not isinstance(document, dict):
            return
        buckets = document.get("buckets")
        if not isinstance(buckets, list):
            return
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} histogram")
        for entry in buckets:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                continue
            le, cumulative = entry
            le_text = "+Inf" if le in ("+Inf", None) else _format_value(le)
            count_text = _format_value(cumulative)
            if le_text is None or count_text is None:
                continue
            lines.append(f'{name}_bucket{{le="{le_text}"}} {count_text}')
        for suffix, key in (("_sum", "sum"), ("_count", "count")):
            text = _format_value(document.get(key))
            if text is not None:
                lines.append(f"{name}{suffix} {text}")

    for section, key, name, kind, help_text in _SERIES:
        emit(name, kind, help_text, (stats.get(section) or {}).get(key))
    cache = runtime.get("cache") or {}
    for key, name, help_text in _CACHE_SERIES:
        emit(name, "counter", help_text, cache.get(key))
    for key, name, help_text in _CACHE_GAUGES:
        emit(name, "gauge", help_text, cache.get(key))
    emit(
        "repro_cache_hit_rate",
        "gauge",
        "Fraction of result-cache lookups served from cache (memory or disk)",
        cache.get("hit_rate"),
    )
    for section, key, name, help_text in _HISTOGRAM_SERIES:
        emit_histogram(name, help_text, (stats.get(section) or {}).get(key))
    server = stats.get("server") or {}
    info_labels = (
        f'version="{_escape_label(server.get("version", ""))}",'
        f'algorithm="{_escape_label(server.get("default_algorithm", ""))}"'
    )
    if runtime.get("analysis_backend"):
        # stats documents predating the vector backend lack the key; the
        # label then stays absent instead of rendering as an empty string
        info_labels += (
            f',analysis_backend="{_escape_label(runtime.get("analysis_backend"))}"'
        )
    lines.append("# HELP repro_service_info Static service metadata carried as labels")
    lines.append("# TYPE repro_service_info gauge")
    lines.append(f"repro_service_info{{{info_labels}}} 1")
    return "\n".join(lines) + "\n"
