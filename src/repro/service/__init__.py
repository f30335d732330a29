"""Persistent analysis service: job queue and JSON API server on a warm runtime.

A batch or a search on its own opens a runtime for one call and closes it
when the call returns.  This package keeps one :class:`EngineRuntime` warm
for the life of a process and turns the analysis into a *resident* service:

* :class:`EngineRuntime` (defined in :mod:`repro.engine.runtime`, re-exported
  here) — one persistent process pool (a serial loop at one worker), a
  shared result cache and :class:`RuntimeStats` telemetry, reused by every
  batch and every search generation;
* :mod:`repro.service.queue` — :class:`JobQueue`, asynchronous FIFO
  submission with futures, coalescing of content-identical in-flight jobs
  and bounded backpressure;
* :mod:`repro.service.server` — :class:`AnalysisServer`, a stdlib-only HTTP
  JSON API (``POST /analyze``, ``POST /batch``, ``POST /search``,
  ``GET /stats``, ``GET /metrics``, ``GET /healthz``) speaking the
  :mod:`repro.io` formats;
* :mod:`repro.service.client` — :class:`ServiceClient`, the thin typed
  client for that API;
* :mod:`repro.service.metrics` — Prometheus text-format rendering of the
  telemetry behind ``GET /metrics``.

``BatchAnalyzer(runtime=...)`` and ``SearchDriver(runtime=...)`` bind the
existing engine/search front ends to a runtime, so warm multi-generation
searches perform **zero** pool constructions while verdicts stay
bit-identical to the serial path.  On the command line, ``repro-rta serve``
boots one server; a deployment runs one per host, each driven by
:class:`ServiceClient` callers.
"""

from ..engine.runtime import EngineRuntime, RuntimeStats
from .client import ServiceClient
from .metrics import render_prometheus_metrics
from .queue import JobQueue, QueueStats
from .server import AnalysisServer

__all__ = [
    "EngineRuntime",
    "RuntimeStats",
    "JobQueue",
    "QueueStats",
    "AnalysisServer",
    "ServiceClient",
    "render_prometheus_metrics",
]
