"""Thin stdlib HTTP client for the :mod:`repro.service` JSON API.

A :class:`ServiceClient` turns the server's wire formats back into the
library's own objects, so remote analysis reads like local analysis::

    from repro.service import ServiceClient

    client = ServiceClient("http://127.0.0.1:8517")
    schedule = client.analyze(problem)              # -> repro.core.Schedule
    schedules = client.analyze_many(problems)       # submission order
    result = client.search(problem, kind="memory", horizon=30_000)

Partial batch failure mirrors the engine's contract: ``analyze_many`` raises
:class:`~repro.errors.BatchExecutionError` whose ``results`` list holds the
completed schedules (``None`` at failed positions) and whose ``failures`` map
carries the per-index error messages.

Transport and protocol errors raise :class:`~repro.errors.ServiceError` with
the server's own message whenever one is available.  So does a problem whose
arbiter the ``repro-problem`` document cannot carry (it names the arbiter,
not its parameters), before any request is sent.
"""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request
from typing import Any, Dict, Iterable, List, Optional

from .. import obs
from ..arbiter import create_arbiter
from ..core import AnalysisProblem, OverlayProblem, Schedule
from ..engine.jobs import _arbiter_signature
from ..errors import BatchExecutionError, ReproError, SerializationError, ServiceError
from ..io.json_io import delta_to_dict, problem_to_dict

__all__ = ["ServiceClient"]


def _problem_document(problem: AnalysisProblem) -> Dict[str, Any]:
    """The ``repro-problem`` document for ``problem``, refused when lossy.

    The document carries the arbiter by registry *name* only, and the server
    rebuilds it with the registry defaults.  A parameterized or unregistered
    arbiter would silently be analysed as a different problem, so it raises
    :class:`~repro.errors.ServiceError` here, naming the arbiter.
    """
    arbiter = problem.arbiter
    try:
        rebuilt = create_arbiter(arbiter.name, problem.platform)
    except ReproError as exc:  # unregistered name, or a factory that rejects it
        raise ServiceError(
            f"arbiter {arbiter.name!r} cannot be rebuilt by name on the server: {exc}"
        ) from exc
    if _arbiter_signature(rebuilt) != _arbiter_signature(arbiter):
        raise ServiceError(
            f"arbiter {arbiter.name!r} carries parameters the repro-problem document "
            "does not transport; the server would analyse it with the registry "
            "defaults (analyse this problem in-process instead)"
        )
    return problem_to_dict(problem)


class ServiceClient:
    """Client for one :class:`~repro.service.AnalysisServer` base URL.

    The client is stateless and thread-safe; one instance can be shared
    across threads.

    :param base_url: server base URL, e.g. ``http://127.0.0.1:8517`` (no
        trailing path; ``https`` works if the server is behind a TLS proxy).
    :param timeout: bound, in seconds, on every HTTP round trip.  Applies
        per request, not per batch: ``analyze_many`` performs one request.
    :raises ServiceError: if ``base_url`` is not an http(s) URL.
    """

    def __init__(self, base_url: str, *, timeout: float = 60.0) -> None:
        base_url = str(base_url).strip().rstrip("/")
        if not base_url.startswith(("http://", "https://")):
            raise ServiceError(f"base_url must be an http(s) URL, got {base_url!r}")
        self.base_url = base_url
        self.timeout = float(timeout)

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------

    def _raw_request(
        self, method: str, path: str, document: Optional[Dict[str, Any]] = None
    ) -> bytes:
        """One HTTP round trip; returns the raw response body.

        Raises :class:`~repro.errors.ServiceError` with ``status`` set to the
        HTTP code for error responses, and with ``status=None`` for transport
        failures (connection refused, timeout, DNS...).
        """
        if not obs.tracing_enabled():
            return self._transport(method, path, document)
        with obs.span(
            "client.request", method=method, path=path, endpoint=self.base_url
        ):
            # the traceparent header is read inside _transport, so the
            # server-side spans parent under this client.request span
            return self._transport(method, path, document)

    def _transport(
        self, method: str, path: str, document: Optional[Dict[str, Any]] = None
    ) -> bytes:
        url = f"{self.base_url}{path}"
        data = None if document is None else json.dumps(document).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        traceparent = obs.current_traceparent()
        if traceparent is not None:
            # distributed tracing: the server continues this trace and ships
            # its spans back on the response (see AnalysisServer)
            headers[obs.TRACEPARENT_HEADER] = traceparent
        request = urllib.request.Request(url, data=data, method=method, headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.read()
        except urllib.error.HTTPError as exc:
            message = f"HTTP {exc.code}"
            try:
                body = json.loads(exc.read().decode("utf-8"))
                if isinstance(body, dict) and body.get("error"):
                    message = f"{message}: {body['error']}"
            except Exception:  # noqa: BLE001 - error body is best-effort
                pass
            raise ServiceError(
                f"analysis service rejected {method} {path} ({message})", status=exc.code
            ) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(f"cannot reach analysis service at {url}: {exc.reason}") from exc
        except http.client.HTTPException as exc:
            # response-phase protocol failures (BadStatusLine, IncompleteRead,
            # RemoteDisconnected...) are transport errors too: urllib only
            # wraps the *request* phase in URLError
            raise ServiceError(
                f"malformed HTTP response from {url}: {type(exc).__name__}: {exc}"
            ) from exc
        except OSError as exc:  # e.g. a connection reset halfway through the body
            raise ServiceError(f"connection to {url} failed: {exc}") from exc

    def _request(
        self, method: str, path: str, document: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        payload = self._raw_request(method, path, document)
        try:
            parsed = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"analysis service returned invalid JSON for {path}: {exc}") from exc
        if not isinstance(parsed, dict):
            raise ServiceError(f"analysis service returned a non-object for {path}")
        remote_spans = parsed.pop("trace", None)
        if remote_spans:
            tracer = obs.current_tracer()
            if tracer is not None:
                tracer.record_foreign(remote_spans)
        return parsed

    @staticmethod
    def _schedule(record: Any, context: str) -> Schedule:
        if not isinstance(record, dict):
            raise ServiceError(f"{context}: response carries no schedule object")
        try:
            return Schedule.from_dict(record)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"{context}: invalid schedule in response: {exc}") from exc

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """Liveness document (``{"status": "ok", ...}``)."""
        return self._request("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        """Runtime/queue/server telemetry snapshot of the service.

        The ``runtime`` section mirrors :class:`~repro.service.RuntimeStats`
        (including ``latency_ewma_seconds``), ``queue`` mirrors
        :class:`~repro.service.QueueStats`, and ``server`` carries the request
        counter and version.
        """
        return self._request("GET", "/stats")

    def metrics(self) -> str:
        """Prometheus text-format rendering of the service telemetry.

        The raw body of ``GET /metrics`` — the same counters :meth:`stats`
        returns as JSON, in the text exposition format scrapers expect.
        """
        payload = self._raw_request("GET", "/metrics")
        try:
            return payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ServiceError(f"analysis service returned invalid metrics text: {exc}") from exc

    def analyze(
        self,
        problem: AnalysisProblem,
        *,
        algorithm: Optional[str] = None,
    ) -> Schedule:
        """Analyse one problem remotely; returns its :class:`Schedule`.

        :param problem: the problem to analyse; travels as a ``repro-problem``
            JSON document, so only the arbiter's registry *name* crosses the
            wire.  A custom arbiter parameterization raises instead.
        :param algorithm: analysis algorithm name; ``None`` uses the server's
            default.  The name must resolve in the *server's* registry.
        :raises ServiceError: on an arbiter the document cannot carry, on
            transport failures or error responses (``status`` carries the
            HTTP code when there is one).
        :raises SerializationError: if the response schedule is malformed.
        """
        document: Dict[str, Any] = {"problem": _problem_document(problem)}
        if algorithm is not None:
            document["algorithm"] = algorithm
        response = self._request("POST", "/analyze", document)
        return self._schedule(response.get("schedule"), f"analyze {problem.name!r}")

    def analyze_many(
        self,
        problems: Iterable[AnalysisProblem],
        *,
        algorithm: Optional[str] = None,
    ) -> List[Schedule]:
        """Analyse many problems remotely; schedules in submission order.

        Matches :func:`repro.analyze_many` semantics, including partial
        failure: completed schedules are preserved on the raised
        :class:`~repro.errors.BatchExecutionError`.

        :param problems: problems to analyse; the whole batch travels as one
            ``POST /batch`` request (one timeout window covers all of it).
        :param algorithm: analysis algorithm name; ``None`` uses the server's
            default.
        :raises BatchExecutionError: when some jobs failed on the server —
            ``results`` holds the completed schedules (``None`` at failed
            positions) and ``failures`` maps submission indices to messages.
        :raises ServiceError: on an arbiter the document cannot carry, on
            transport failures or error responses.
        """
        problems = list(problems)
        document: Dict[str, Any] = {
            "problems": [_problem_document(problem) for problem in problems],
        }
        if algorithm is not None:
            document["algorithm"] = algorithm
        return self._batch_request(document, len(problems))

    def analyze_many_deltas(
        self,
        probes: Iterable[OverlayProblem],
        *,
        algorithm: Optional[str] = None,
    ) -> List[Schedule]:
        """Analyse many probes of one parent kernel as one delta batch.

        Every probe must share one parent kernel: the request ships the
        parent as a single ``repro-problem`` document plus one small delta
        record per probe (:func:`repro.io.delta_to_dict` — parameter and
        structural probes mix freely), instead of N full problem payloads.
        The server compiles the parent once and
        warm-starts structural probes from its *own* parent schedule — warm
        starts never cross the wire, so a client cannot poison remote
        verdicts.  Results, ordering and the partial-failure contract match
        :meth:`analyze_many` exactly.

        :raises ServiceError: on an empty probe list, a non-probe, probes that
            do not share one parent kernel, an arbiter the document cannot
            carry, transport failures or error responses.
        :raises BatchExecutionError: when some probes failed on the server.
        """
        probes = list(probes)
        if not probes:
            raise ServiceError("analyze_many_deltas needs at least one probe")
        if any(not isinstance(probe, OverlayProblem) for probe in probes):
            raise ServiceError("analyze_many_deltas takes probes (OverlayProblem) only")
        parent = probes[0].parent
        if any(probe.parent is not parent for probe in probes[1:]):
            raise ServiceError("every probe of a delta batch must share one parent kernel")
        document: Dict[str, Any] = {
            "problem": _problem_document(parent.problem),
            "deltas": [delta_to_dict(probe) for probe in probes],
        }
        if algorithm is not None:
            document["algorithm"] = algorithm
        return self._batch_request(document, len(probes))

    def _batch_request(self, document: Dict[str, Any], expected: int) -> List[Schedule]:
        """POST ``/batch`` and decode the shared batch response contract."""
        response = self._request("POST", "/batch", document)
        records = response.get("schedules")
        if not isinstance(records, list) or len(records) != expected:
            raise ServiceError(
                f"batch response carries {0 if not isinstance(records, list) else len(records)} "
                f"schedule(s) for {expected} problem(s)"
            )
        schedules: List[Optional[Schedule]] = [
            None if record is None else self._schedule(record, f"batch[{index}]")
            for index, record in enumerate(records)
        ]
        failures = {
            int(index): str(message)
            for index, message in (response.get("failures") or {}).items()
        }
        if failures:
            raise BatchExecutionError(
                f"{len(failures)} of {expected} job(s) failed on the service: "
                + "; ".join(list(failures.values())[:3]),
                failures=failures,
                results=schedules,
            )
        return schedules  # type: ignore[return-value]

    def search(
        self,
        problem: AnalysisProblem,
        *,
        kind: str = "memory",
        algorithm: Optional[str] = None,
        max_factor: Optional[float] = None,
        tolerance: Optional[float] = None,
        speculation: Optional[int] = None,
        horizon: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Run a design-space search on the service's warm runtime.

        ``kind`` is ``memory``/``wcet`` (sensitivity bracketing; returns the
        breaking factor, makespan and probe trace) or ``horizon`` (returns
        ``minimal_horizon``).  ``horizon`` overrides the problem's own global
        deadline for this call.

        :raises ServiceError: on an arbiter the document cannot carry, on
            transport failures or error responses.
        """
        document: Dict[str, Any] = {"problem": _problem_document(problem), "kind": kind}
        if algorithm is not None:
            document["algorithm"] = algorithm
        if max_factor is not None:
            document["max_factor"] = max_factor
        if tolerance is not None:
            document["tolerance"] = tolerance
        if speculation is not None:
            document["speculation"] = speculation
        if horizon is not None:
            document["horizon"] = horizon
        return self._request("POST", "/search", document)
