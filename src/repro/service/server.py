"""Stdlib-only HTTP JSON API in front of the persistent analysis runtime.

:class:`AnalysisServer` binds an :class:`~repro.service.EngineRuntime` (warm
worker pool + shared result cache) and a :class:`~repro.service.JobQueue`
(digest coalescing, backpressure) to a
:class:`http.server.ThreadingHTTPServer`.  Problems and schedules travel in
the :mod:`repro.io` JSON formats, so anything that can produce a
``repro-problem`` document can talk to the service — including the thin
:class:`~repro.service.ServiceClient`.

Endpoints
---------
``POST /analyze``
    ``{"problem": <repro-problem>, "algorithm"?}`` →
    ``{"schedule": <schedule dict>, "schedulable", "makespan"}``.
    The job goes through the queue: concurrent clients are batched onto the
    warm pool, identical in-flight content is coalesced, and repeat content
    is served from the cache without an analyzer invocation.
``POST /batch``
    ``{"problems": [<repro-problem>...], "algorithm"?}`` →
    a ``repro-batch`` document (``batch_results_to_dict``) plus a
    ``failures`` map for jobs that raised (``schedules`` holds ``null`` at
    failed positions, in submission order — the engine's partial-failure
    contract over HTTP).  The *delta* form —
    ``{"problem": <repro-problem>, "deltas": [<record>...]}`` — ships one
    parent problem plus one small record per probe instead of N full problem
    documents; each record is a ``repro-overlay`` parameter delta or a
    ``repro-structure-delta`` edit (add/remove task or edge, remap), mixed
    freely.  The server compiles the parent into a problem kernel once and
    analyses every probe against it (the wire format behind
    :meth:`ServiceClient.analyze_many_deltas`).  When a structural record is
    present the server first analyses the parent (queue-coalesced, so repeat
    parents are free) and warm-starts the structural probes from that
    schedule.
    Warm starts are always computed server-side from the server's own parent
    schedule; clients cannot supply one (a poisoned schedule could alter
    verdicts).
``POST /search``
    ``{"problem": ..., "kind": "memory"|"wcet"|"horizon", "max_factor"?,
    "tolerance"?, "speculation"?, "horizon"?, "algorithm"?}`` → the same
    result document the ``repro-rta search`` CLI writes.  Search generations
    run directly on the runtime (one warm pool, zero constructions).
``GET /stats``
    Runtime, queue and server telemetry (pool constructions, cache hit/miss,
    latency EWMA, queue depth...).
``GET /metrics``
    The same telemetry in the Prometheus text exposition format
    (:mod:`repro.service.metrics`), ready for a standard scraper.
``GET /healthz``
    Liveness probe.

Unknown top-level keys of a request body are ignored.  Errors come back as
``{"error": "..."}`` with 400 (bad request), 404, 405, 422 (analysis failed)
or 500.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union
from urllib.parse import urlsplit

from .. import __version__, obs
from ..analysis.schedulability import minimal_horizon
from ..analysis.search import SearchDriver
from ..analysis.sensitivity import memory_sensitivity, wcet_sensitivity
from ..core.analyzer import INCREMENTAL
from ..core.kernel import ParamOverlay, compile_problem
from ..engine.runtime import EngineRuntime
from ..errors import QueueFullError, ReproError, SerializationError, ServiceError
from ..io.json_io import (
    batch_results_to_dict,
    delta_from_dict,
    is_structure_delta,
    problem_from_dict,
)
from .metrics import METRICS_CONTENT_TYPE, render_prometheus_metrics
from .queue import JobQueue

__all__ = ["AnalysisServer"]

#: how often the background serving thread checks for :meth:`AnalysisServer.close`
_SHUTDOWN_POLL_SECONDS = 0.05


class _BadRequest(ValueError):
    """Client-side input error: reported as HTTP 400 with the message."""


def _int_field(document: Dict[str, Any], field: str) -> Optional[int]:
    """An optional integer field; a non-finite or non-numeric value is a 400 naming it."""
    value = document.get(field)
    try:
        return None if value is None else int(value)
    except (TypeError, ValueError, OverflowError):
        raise _BadRequest(f"{field!r} must be an integer, got {value!r}") from None


def _parse_problem(document: Dict[str, Any], field: str = "problem") -> Any:
    record = document.get(field)
    if not isinstance(record, dict):
        raise _BadRequest(f"request body must carry a {field!r} object")
    try:
        return problem_from_dict(record)
    except SerializationError as exc:
        raise _BadRequest(str(exc)) from exc


class AnalysisServer:
    """HTTP front end of one persistent analysis runtime.

    ``runtime=None`` creates (and owns) a default :class:`EngineRuntime`; a
    caller-supplied runtime is shared, not closed on shutdown.  ``port=0``
    binds an ephemeral port — read :attr:`port` / :attr:`url` after
    construction.  Use :meth:`start` for a background thread (tests, embedded
    use) or :meth:`serve_forever` to serve on the calling thread (the CLI).

    Request logging is structured JSONL through :class:`repro.obs.JsonlLogger`
    (one JSON object per request: method, path, status, duration, trace id) —
    quiet by default; ``quiet=False`` emits the lines to stderr.  A request
    carrying a ``traceparent`` header is executed under a per-request tracer
    continuing the client's trace, and its server-side spans travel back on
    the JSON response (``"trace"`` key) for distributed stitching.
    ``trace_dir`` additionally persists request logs and span records as
    JSONL files (``requests-<port>.jsonl`` / ``spans-<port>.jsonl``) and
    traces *every* request, header or not.
    """

    def __init__(
        self,
        runtime: Optional[EngineRuntime] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        algorithm: str = INCREMENTAL,
        max_pending: int = 1024,
        submit_timeout: Optional[float] = 30.0,
        quiet: bool = True,
        trace_dir: Union[str, Path, None] = None,
    ) -> None:
        self._owns_runtime = runtime is None
        self.runtime = runtime if runtime is not None else EngineRuntime()
        self.default_algorithm = algorithm
        self.submit_timeout = submit_timeout
        self.quiet = quiet
        self.trace_dir = None if trace_dir is None else Path(trace_dir).expanduser()
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.queue = JobQueue(self.runtime, algorithm=algorithm, max_pending=max_pending)
        self._requests = 0
        self._requests_lock = threading.Lock()
        self._request_histogram = obs.Histogram()
        service = self

        class _Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            server_version = f"repro-service/{__version__}"
            # TCP_NODELAY: headers and body leave in two writes, and Nagle's algorithm
            # would hold the body for the client's delayed ACK (~40 ms per request)
            disable_nagle_algorithm = True

            def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
                # the default stderr access-log line is replaced by the
                # structured JSONL record _dispatch emits per request
                pass

            def _reply(self, status: int, document: Any) -> None:
                # dict responses are JSON; str responses (the /metrics text
                # exposition) go out as Prometheus plain text
                if isinstance(document, str):
                    body = document.encode("utf-8")
                    content_type = METRICS_CONTENT_TYPE
                else:
                    body = json.dumps(document).encode("utf-8")
                    content_type = "application/json"
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _dispatch(self, method: str) -> None:
                with service._requests_lock:
                    service._requests += 1
                started = time.perf_counter()
                path = urlsplit(self.path).path.rstrip("/") or "/"
                traceparent = self.headers.get(obs.TRACEPARENT_HEADER)
                tracer: Optional[obs.Tracer] = None
                if traceparent or service.trace_dir is not None:
                    tracer = obs.Tracer.from_traceparent(
                        traceparent, service=f"server:{service.port}"
                    )
                if tracer is None:
                    status, response = self._evaluate(method, path)
                else:
                    with tracer.activate():
                        with obs.span("http.request", method=method, path=path) as req:
                            status, response = self._evaluate(method, path)
                            req.set(status=status)
                    if traceparent and isinstance(response, dict):
                        # hand the server-side spans back to the caller so a
                        # client-driven run stitches into a single trace
                        response = {**response, "trace": tracer.span_dicts()}
                # log before replying: once the client sees the response it
                # may issue its next request, and that handler thread must
                # find this record already written (keeps the JSONL stream in
                # request order)
                duration = time.perf_counter() - started
                service._request_histogram.observe(duration)
                service._log_request(method, path, status, duration, tracer)
                self._reply(status, response)

            def _evaluate(self, method: str, path: str) -> Tuple[int, Any]:
                """Route and run one request; always returns (status, body)."""
                try:
                    document: Dict[str, Any] = {}
                    if method == "POST":
                        header = self.headers.get("Content-Length") or "0"
                        try:
                            length = int(header)
                        except ValueError:
                            length = -1
                        if length < 0:
                            # rfile.read(-1) would block until the client
                            # closes its keep-alive connection; a body with
                            # no length cannot be framed, so the connection
                            # ends after the reply (an unread body would
                            # otherwise be parsed as the next request)
                            self.close_connection = True
                            raise _BadRequest(f"invalid Content-Length {header}")
                        raw = self.rfile.read(length) if length else b""
                        try:
                            document = json.loads(raw.decode("utf-8")) if raw else {}
                        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                            raise _BadRequest(f"request body is not valid JSON: {exc}")
                        if not isinstance(document, dict):
                            raise _BadRequest("request body must be a JSON object")
                    routes = {
                        ("GET", "/healthz"): lambda: service.handle_healthz(),
                        ("GET", "/stats"): lambda: service.handle_stats(),
                        ("GET", "/metrics"): lambda: service.handle_metrics(),
                        ("POST", "/analyze"): lambda: service.handle_analyze(document),
                        ("POST", "/batch"): lambda: service.handle_batch(document),
                        ("POST", "/search"): lambda: service.handle_search(document),
                    }
                    handler = routes.get((method, path))
                    if handler is None:
                        known = {route_path for _, route_path in routes}
                        if path in known:
                            return 405, {"error": f"method {method} not allowed on {path}"}
                        return 404, {"error": f"unknown endpoint {path}"}
                    return handler()
                except _BadRequest as exc:
                    return 400, {"error": str(exc)}
                except (TypeError, ValueError) as exc:
                    # malformed field values (e.g. a non-numeric max_factor)
                    return 400, {"error": f"invalid request: {exc}"}
                except QueueFullError as exc:
                    return 503, {"error": str(exc)}
                except ReproError as exc:
                    return 422, {"error": f"{type(exc).__name__}: {exc}"}
                except Exception as exc:  # noqa: BLE001 - never kill the connection thread
                    return 500, {"error": f"internal error: {type(exc).__name__}: {exc}"}

            def do_GET(self) -> None:
                self._dispatch("GET")

            def do_POST(self) -> None:
                self._dispatch("POST")

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        # loggers are built after the listener so the bound port can name the
        # trace files (meaningful with port=0)
        self._request_log = obs.JsonlLogger(
            stream=None if quiet else sys.stderr,
            path=(
                None
                if self.trace_dir is None
                else self.trace_dir / f"requests-{self.port}.jsonl"
            ),
        )
        self._span_log = obs.JsonlLogger(
            path=(
                None
                if self.trace_dir is None
                else self.trace_dir / f"spans-{self.port}.jsonl"
            ),
        )

    def _log_request(
        self,
        method: str,
        path: str,
        status: int,
        duration: float,
        tracer: Optional[obs.Tracer],
    ) -> None:
        """One structured request-log record (and the request's span records)."""
        if self._request_log.enabled:
            self._request_log.log(
                "request",
                method=method,
                path=path,
                status=status,
                duration_ms=round(duration * 1000.0, 3),
                trace_id=None if tracer is None else tracer.trace_id,
            )
        if tracer is not None and self._span_log.enabled:
            for record in tracer.span_dicts():
                self._span_log.log("span", **record)

    # ------------------------------------------------------------------
    # endpoint handlers (HTTP-free: also directly testable)
    # ------------------------------------------------------------------

    def handle_healthz(self) -> Tuple[int, Dict[str, Any]]:
        return 200, {"status": "ok", "service": "repro", "version": __version__}

    def handle_stats(self) -> Tuple[int, Dict[str, Any]]:
        with self._requests_lock:
            requests = self._requests
        return 200, {
            "runtime": self.runtime.stats().to_dict(),
            "queue": self.queue.stats().to_dict(),
            "server": {
                "requests": requests,
                "default_algorithm": self.default_algorithm,
                "version": __version__,
                "request_histogram": self._request_histogram.to_dict(),
            },
        }

    def handle_metrics(self) -> Tuple[int, str]:
        """Prometheus text-format rendering of :meth:`handle_stats` (ROADMAP item)."""
        _, stats = self.handle_stats()
        return 200, render_prometheus_metrics(stats)

    def handle_analyze(self, document: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        problem = _parse_problem(document)
        algorithm = document.get("algorithm")
        future = self.queue.submit(
            problem,
            algorithm=None if algorithm is None else str(algorithm),
            timeout=self.submit_timeout,
        )
        schedule = future.result()
        return 200, {
            "schedule": schedule.to_dict(),
            "schedulable": schedule.schedulable,
            "makespan": schedule.makespan,
        }

    def handle_batch(self, document: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        algorithm = document.get("algorithm")
        algorithm = None if algorithm is None else str(algorithm)
        for retired in ("overlays", "structure_deltas"):
            if retired in document:
                raise _BadRequest(
                    f"the {retired!r} batch form is gone: send every delta record "
                    "in one 'deltas' list next to the 'problem'"
                )
        if "deltas" in document:
            problems = self._parse_delta_batch(document, algorithm=algorithm)
        else:
            records = document.get("problems")
            if not isinstance(records, list) or not records:
                raise _BadRequest("request body must carry a non-empty 'problems' list")
            problems = []
            for position, record in enumerate(records):
                if not isinstance(record, dict):
                    raise _BadRequest(f"problems[{position}] is not an object")
                try:
                    problems.append(problem_from_dict(record))
                except SerializationError as exc:
                    raise _BadRequest(f"problems[{position}]: {exc}") from exc
        futures = self.queue.map(problems, algorithm=algorithm, timeout=self.submit_timeout)
        schedules: List[Optional[Any]] = []
        failures: Dict[str, str] = {}
        for position, future in enumerate(futures):
            try:
                schedules.append(future.result())
            except Exception as exc:  # noqa: BLE001 - reported per job
                schedules.append(None)
                failures[str(position)] = str(exc)
        response = batch_results_to_dict(
            [schedule for schedule in schedules if schedule is not None]
        )
        # preserve submission positions: the document's schedules list carries
        # null at failed indices, exactly like BatchExecutionError.results
        response["schedules"] = [
            None if schedule is None else schedule.to_dict() for schedule in schedules
        ]
        response["count"] = len(schedules)
        response["failures"] = failures
        return 200, response

    def _parse_delta_batch(
        self, document: Dict[str, Any], *, algorithm: Optional[str]
    ) -> List[Any]:
        """Delta-form batch: one parent problem + N delta records.

        The parent compiles into one kernel, so a batch walks the parent's
        structure a single time however many probes it carries.  When a
        structural record is present the parent is analysed first — through
        the queue, so a repeated parent coalesces onto in-flight work or hits
        the cache — and the structural probes warm-start from that schedule.
        The warm start always comes from the server's *own* parent schedule,
        never the client's: a forged schedule could steer a warm resume to a
        different verdict.  A parent that fails analysis (e.g. unschedulable
        horizon) degrades the probes to cold runs, which are always correct.
        """
        records = document.get("deltas")
        if not isinstance(records, list) or not records:
            raise _BadRequest("request body must carry a non-empty 'deltas' list")
        base = _parse_problem(document)
        kernel = compile_problem(base)
        for position, record in enumerate(records):
            if not isinstance(record, dict):
                raise _BadRequest(f"deltas[{position}] is not an object")
        parent_schedule = None
        if any(is_structure_delta(record) for record in records):
            try:
                # submit the parent as a no-op overlay over the compiled
                # kernel: digests identically to the plain problem (coalesces
                # with prior work on it) but reuses this compilation
                parent_schedule = self.queue.submit(
                    kernel.with_overlay(ParamOverlay(), name=base.name),
                    algorithm=algorithm,
                    timeout=self.submit_timeout,
                ).result()
            except QueueFullError:
                raise
            except Exception:  # noqa: BLE001 - parent failure → probes run cold
                parent_schedule = None
        probes = []
        for position, record in enumerate(records):
            try:
                probes.append(
                    delta_from_dict(record, kernel, parent_schedule=parent_schedule)
                )
            except ReproError as exc:
                # a malformed record, or an edit that does not apply to *this*
                # problem (unknown task, duplicate edge...): a client error
                raise _BadRequest(f"deltas[{position}]: {exc}") from exc
        return probes

    def handle_search(self, document: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        problem = _parse_problem(document)
        kind = str(document.get("kind", "memory")).strip().lower()
        if kind not in ("memory", "wcet", "horizon"):
            raise _BadRequest(f"unknown search kind {kind!r} (memory, wcet or horizon)")
        horizon = _int_field(document, "horizon")
        if horizon is not None:
            problem = problem.with_horizon(horizon)
        algorithm = str(document.get("algorithm") or self.default_algorithm)
        driver = SearchDriver(
            algorithm, runtime=self.runtime, speculation=_int_field(document, "speculation")
        )
        if kind == "horizon":
            horizon = minimal_horizon(problem, driver=driver)
            return 200, {"kind": kind, "problem": problem.name, "minimal_horizon": horizon}
        if problem.horizon is None:
            raise _BadRequest(
                "sensitivity search needs a horizon (global deadline); "
                "set one in the problem or pass 'horizon'"
            )
        sensitivity = memory_sensitivity if kind == "memory" else wcet_sensitivity
        result = sensitivity(
            problem,
            max_factor=float(document.get("max_factor", 16.0)),
            tolerance=float(document.get("tolerance", 0.05)),
            driver=driver,
        )
        return 200, {"kind": kind, "problem": problem.name, **result.to_dict()}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """Bound TCP port (the ephemeral one when constructed with ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "AnalysisServer":
        """Serve on a daemon background thread; returns ``self`` for chaining."""
        if self._closed:
            raise ServiceError("server is closed")
        if self._thread is not None:
            raise ServiceError("server is already running")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, args=(_SHUTDOWN_POLL_SECONDS,),
            name="repro-service-http", daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` or an interrupt."""
        if self._closed:
            raise ServiceError("server is closed")
        self._httpd.serve_forever()

    def close(self) -> None:
        """Graceful shutdown: HTTP listener, queue (drained), then the runtime."""
        if self._closed:
            return
        self._closed = True
        if self._thread is not None and self._thread.is_alive():
            self._httpd.shutdown()
            self._thread.join()
        self._httpd.server_close()
        self.queue.close(drain=True)
        if self._owns_runtime:
            self.runtime.close()
        self._request_log.close()
        self._span_log.close()

    def __enter__(self) -> "AnalysisServer":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
