"""Cluster fan-out: distribute analysis jobs across remote analysis servers.

The :class:`~repro.service.EngineRuntime` scales a batch across the cores of
*one* machine.  A :class:`ClusterDispatcher` scales it across *machines*: it
holds one :class:`~repro.service.ServiceClient` per remote
:class:`~repro.service.AnalysisServer` endpoint and fans the jobs of a batch
out over the fleet through the existing JSON wire format — every job is one
``POST /analyze`` request, every result the same ``repro-schedule`` document
local analysis produces, so verdicts are bit-identical to the serial path.

Routing and fault tolerance
---------------------------
* **load-aware routing** — each job goes to the endpoint with the lowest
  ``(outstanding + 1) × latency`` score, where ``latency`` is an EWMA seeded
  from the endpoint's own ``GET /stats`` ``latency_ewma_seconds`` (when it
  reports one) and updated from observed request round trips.  A fast idle
  server therefore wins over a slow busy one, not just over a *busier* one;
* **bounded in-flight windows** — at most ``max_in_flight`` jobs are
  outstanding per endpoint; further jobs wait for a slot instead of piling
  onto one server's queue;
* **retry with failover** — an *endpoint* error (connection refused/reset,
  timeout, HTTP 5xx) quarantines the endpoint and resubmits the job to
  another one, up to ``retries + 1`` attempts.  A *job* error (HTTP 4xx:
  malformed problem, unknown algorithm, analysis failure) is never retried —
  it would fail identically everywhere — and is reported through the
  engine's :class:`~repro.errors.BatchExecutionError` partial-failure
  contract;
* **health probing** — quarantined endpoints are re-probed via
  ``GET /healthz`` once their quarantine expires and rejoin the rotation on
  success.  When *every* endpoint is quarantined and a full probe sweep
  fails, the run aborts with a clean :class:`~repro.errors.ServiceError`
  (there is nowhere left to send work).

Delta batching
--------------
Jobs whose problem is a probe — an :class:`~repro.core.OverlayProblem`: a
parent kernel plus one parameter or structural delta, which is how the
sensitivity searches and structural what-ifs build their generations — are
grouped by parent kernel and shipped as *delta sub-batches*: one
``POST /batch`` request carrying the parent ``repro-problem`` document once
plus one small delta record per probe, instead of N full problem payloads.
The receiving server compiles the parent once, analyses every probe against
it and warm-starts structural probes from its own parent schedule (warm
starts never cross the wire).  Groups are chunked to at most
``delta_batch`` probes per request so a large generation still spreads
across the fleet; each sub-batch occupies one in-flight slot and fails over
as a unit.  A 4xx rejection of the request itself — a server that predates
the ``deltas`` form — falls back to one ``POST /analyze`` per probe with the
probe materialized.  Plain jobs keep the one-job-per-``POST /analyze``
path.

Wire-format limits
------------------
Problems travel as ``repro-problem`` JSON documents: the arbiter crosses the
wire by registry *name* only, and algorithm names must resolve in the remote
server's registry (runtime-registered closures cannot be shipped to another
host).  The dispatcher *enforces* the arbiter limit: a job whose arbiter
does not round-trip the wire format (custom parameterization, unregistered
policy) fails cleanly as a job error instead of silently analysing a
different problem — and, worse, caching its schedule under the
parameter-inclusive content digest.  Within those limits remote results are
exactly the local ones.

Use it through ``EngineRuntime(backend="remote", endpoints=[...])`` (which
makes ``analyze_many(runtime=...)``, ``BatchAnalyzer(runtime=...)`` and
``SearchDriver(runtime=...)`` all run distributed), or standalone via
:meth:`ClusterDispatcher.run`.
"""

from __future__ import annotations

import contextvars
import threading
import time
from concurrent.futures import CancelledError, ThreadPoolExecutor, as_completed
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..arbiter import create_arbiter
from ..core import AnalysisProblem, OverlayProblem, Schedule
from ..engine.executor import ProgressCallback, ProgressEvent, _summarize
from ..engine.jobs import AnalysisJob, _arbiter_signature
from ..errors import BatchExecutionError, ServiceError
from .client import ServiceClient

__all__ = ["normalize_endpoint", "ClusterDispatcher"]


def normalize_endpoint(endpoint: str) -> str:
    """Canonical base URL for an endpoint spec.

    Accepts a bare ``host:port`` (an ``http://`` scheme is assumed — the CLI
    form) or a full http(s) URL; trailing slashes are stripped.

    :raises ServiceError: on an empty spec.
    """
    endpoint = str(endpoint).strip().rstrip("/")
    if not endpoint:
        raise ServiceError("cluster endpoint must not be empty")
    if not endpoint.startswith(("http://", "https://")):
        endpoint = f"http://{endpoint}"
    return endpoint


def _is_endpoint_error(exc: ServiceError) -> bool:
    """True when the *endpoint* failed (fail over), not the job (report it)."""
    return exc.status is None or exc.status >= 500


def _arbiter_wire_error(problem: AnalysisProblem) -> Optional[str]:
    """Error message when the problem's arbiter cannot survive the wire.

    The ``repro-problem`` JSON format transports the arbiter by registry
    *name* only.  A parameterized arbiter (custom weights, priorities...)
    would be silently rebuilt with default parameters on the server — a
    *different* problem — and the wrong schedule would then be cached under
    the parameter-inclusive content digest, poisoning every future local
    lookup.  Arbiters hold their configuration in plain instance attributes
    and no analysis-time state, so comparing the canonical signature against
    a fresh by-name reconstruction detects exactly the lossy cases.
    """
    arbiter = problem.arbiter
    try:
        rebuilt = create_arbiter(arbiter.name, problem.platform)
    except Exception as exc:  # noqa: BLE001 - unregistered/custom arbiters
        return (
            f"arbiter {arbiter.name!r} cannot be reconstructed by name on a "
            f"remote server: {exc}"
        )
    if _arbiter_signature(rebuilt) != _arbiter_signature(arbiter):
        return (
            f"arbiter {arbiter.name!r} carries parameters the JSON wire format "
            "does not transport; remote analysis would silently use the "
            "registry defaults (run this problem on a local backend instead)"
        )
    return None


class _JobError(Exception):
    """A job failed for its own reasons; reported per-position, never fatal."""


class _Endpoint:
    """Live routing state of one remote server (guarded by the dispatcher lock)."""

    __slots__ = (
        "url",
        "client",
        "probe_client",
        "window",
        "outstanding",
        "healthy",
        "quarantined_until",
        "probing",
        "latency_ewma",
        "jobs_completed",
        "jobs_failed",
        "endpoint_errors",
        "quarantines",
        "last_selected",
    )

    def __init__(self, url: str, client: ServiceClient, probe_client: ServiceClient, window: int) -> None:
        self.url = url
        self.client = client
        self.probe_client = probe_client
        self.window = window
        self.outstanding = 0
        self.healthy = True  # optimistic: the first failure quarantines
        self.quarantined_until = 0.0
        self.probing = False
        self.latency_ewma: Optional[float] = None
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.endpoint_errors = 0
        self.quarantines = 0
        self.last_selected = 0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "url": self.url,
            "healthy": self.healthy,
            "outstanding": self.outstanding,
            "window": self.window,
            "latency_ewma_seconds": self.latency_ewma,
            "jobs_completed": self.jobs_completed,
            "jobs_failed": self.jobs_failed,
            "endpoint_errors": self.endpoint_errors,
            "quarantines": self.quarantines,
        }


class ClusterDispatcher:
    """Fans :class:`~repro.engine.jobs.AnalysisJob` batches out to a server fleet.

    Implements the same ``run(jobs, progress=...)`` execution contract as the
    local pool backends of :class:`~repro.service.EngineRuntime` — submission
    order preserved, partial failures collected into one
    :class:`~repro.errors.BatchExecutionError` at the end — which is what
    makes it pluggable behind ``EngineRuntime(backend="remote")``.

    :param endpoints: remote server specs (``host:port`` or full URLs); see
        :func:`normalize_endpoint`.  Duplicates are rejected.
    :param max_in_flight: in-flight window per endpoint; total dispatch
        concurrency is ``len(endpoints) * max_in_flight`` (the dispatcher's
        :attr:`capacity`).
    :param retries: endpoint attempts per job beyond the first; ``None``
        defaults to ``len(endpoints)`` so a job can try every server once
        plus one recovered server.  Only *endpoint* errors consume attempts.
    :param quarantine_seconds: how long a failed endpoint sits out before a
        ``/healthz`` re-probe may readmit it.
    :param timeout: per-request timeout (seconds) of the underlying clients.
    :param probe_timeout: timeout for ``/healthz``/``/stats`` probes.
    :param latency_smoothing: EWMA factor applied to observed round trips.
    :param delta_batch: probes per delta sub-batch when probe jobs of one
        parent are shipped as one request (see *Delta batching* above);
        larger values amortize the parent-problem payload harder, smaller
        values spread a generation across more endpoints.
    :param client_factory: test hook — builds the per-endpoint clients; must
        accept ``(base_url, timeout=...)`` like :class:`ServiceClient`.
    :raises ServiceError: on an empty/duplicated endpoint list or bad bounds.
    """

    def __init__(
        self,
        endpoints: Sequence[str],
        *,
        max_in_flight: int = 4,
        retries: Optional[int] = None,
        quarantine_seconds: float = 5.0,
        timeout: float = 300.0,
        probe_timeout: float = 5.0,
        latency_smoothing: float = 0.2,
        delta_batch: int = 8,
        client_factory: Callable[..., ServiceClient] = ServiceClient,
    ) -> None:
        urls = [normalize_endpoint(endpoint) for endpoint in endpoints]
        if not urls:
            raise ServiceError("a cluster dispatcher needs at least one endpoint")
        if len(set(urls)) != len(urls):
            raise ServiceError(f"duplicate cluster endpoints: {urls}")
        if max_in_flight < 1:
            raise ServiceError(f"max_in_flight must be >= 1, got {max_in_flight}")
        if retries is not None and retries < 0:
            raise ServiceError(f"retries must be >= 0, got {retries}")
        if quarantine_seconds < 0:
            raise ServiceError(f"quarantine_seconds must be >= 0, got {quarantine_seconds}")
        if not (0.0 < latency_smoothing <= 1.0):
            raise ServiceError(f"latency_smoothing must be in (0, 1], got {latency_smoothing}")
        if delta_batch < 1:
            raise ServiceError(f"delta_batch must be >= 1, got {delta_batch}")
        self.delta_batch = int(delta_batch)
        self.retries = len(urls) if retries is None else int(retries)
        self.quarantine_seconds = float(quarantine_seconds)
        self._latency_smoothing = float(latency_smoothing)
        self._endpoints = [
            _Endpoint(
                url,
                client_factory(url, timeout=timeout),
                client_factory(url, timeout=probe_timeout),
                int(max_in_flight),
            )
            for url in urls
        ]
        self._cond = threading.Condition()
        self._tick = 0
        self._closed = False
        self._batches = 0
        self._jobs_dispatched = 0
        #: endpoints whose latest ``/healthz`` probe failed, whichever thread
        #: probed them; once it covers the whole fleet, one sweep has found
        #: every endpoint down
        self._failed_probes: set = set()
        #: set when a full probe sweep found every endpoint down; selections
        #: fail fast until it expires (or any endpoint recovers) instead of
        #: each queued job re-serving the whole quarantine + sweep latency
        self._down_until: Optional[float] = None

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    @property
    def endpoints(self) -> List[str]:
        """Canonical endpoint URLs, in construction order."""
        return [endpoint.url for endpoint in self._endpoints]

    @property
    def capacity(self) -> int:
        """Total in-flight window across the fleet (what sizes fan-out)."""
        return sum(endpoint.window for endpoint in self._endpoints)

    def _score(self, endpoint: _Endpoint) -> tuple:
        # least-outstanding weighted by the latency EWMA: an endpoint with no
        # observation yet scores 0 and is tried first (it costs one job to
        # learn its latency); ties fall back to plain least-outstanding, then
        # to least-recently-selected for a deterministic round robin
        latency = endpoint.latency_ewma if endpoint.latency_ewma is not None else 0.0
        return (
            (endpoint.outstanding + 1) * latency,
            endpoint.outstanding,
            endpoint.last_selected,
        )

    def _select(self) -> _Endpoint:
        """Pick (and reserve a slot on) the best healthy endpoint; may block.

        Raises :class:`~repro.errors.ServiceError` once every endpoint is
        quarantined and ``/healthz`` probes — by any thread, waiting out
        fresh quarantines first — have found every one of them down.
        """
        while True:
            probe_targets: List[_Endpoint] = []
            with self._cond:
                while True:
                    if self._closed:
                        raise ServiceError("cluster dispatcher is closed")
                    ready = [
                        endpoint
                        for endpoint in self._endpoints
                        if endpoint.healthy and endpoint.outstanding < endpoint.window
                    ]
                    if ready:
                        self._kick_due_probes_locked()
                        best = min(ready, key=self._score)
                        best.outstanding += 1
                        self._tick += 1
                        best.last_selected = self._tick
                        return best
                    if any(e.healthy for e in self._endpoints) or any(
                        e.probing for e in self._endpoints
                    ):
                        # a window slot will free up, or a probe verdict is
                        # pending — wait (with a timeout: never rely on a
                        # wake-up that a crashed peer might fail to deliver).
                        # Quarantine-expired endpoints still get their
                        # background re-probe here: a recovered server must
                        # rejoin the rotation even while every healthy peer's
                        # window is saturated with long jobs.
                        self._kick_due_probes_locked()
                        self._cond.wait(0.05)
                        continue
                    now = time.monotonic()
                    if self._down_until is not None and now < self._down_until:
                        # a recent full sweep already proved the fleet down:
                        # fail fast instead of re-serving the quarantine +
                        # probe latency for every queued job
                        raise ServiceError(
                            f"all {len(self._endpoints)} cluster endpoint(s) are "
                            f"unavailable: {', '.join(self.endpoints)}"
                        )
                    due = [e for e in self._endpoints if now >= e.quarantined_until]
                    if due:
                        for endpoint in due:
                            endpoint.probing = True
                        probe_targets = due
                        break
                    # every endpoint is freshly quarantined but not all of
                    # them failed a probe yet: wait out the earliest sentence
                    # instead of giving up with retry budget (and the batch's
                    # completed work) still on the table
                    earliest = min(e.quarantined_until for e in self._endpoints)
                    self._cond.wait(max(min(earliest - now, 0.25), 0.01))
            for endpoint in probe_targets:
                self._probe_endpoint(endpoint)
            # loop: recovered endpoints are now selectable; a sweep that
            # found the whole fleet down has set the all-down verdict

    def _kick_due_probes_locked(self) -> None:
        """Background-probe every quarantine-expired endpoint (lock held).

        The probe runs on its own daemon thread so a recovering server can
        rejoin the rotation without delaying the selection that noticed it.
        """
        now = time.monotonic()
        for endpoint in self._endpoints:
            if (
                not endpoint.healthy
                and not endpoint.probing
                and now >= endpoint.quarantined_until
            ):
                endpoint.probing = True
                threading.Thread(
                    target=self._probe_endpoint,
                    args=(endpoint,),
                    name="repro-cluster-probe",
                    daemon=True,
                ).start()

    def _probe_endpoint(self, endpoint: _Endpoint) -> bool:
        """``/healthz`` one endpoint (outside the lock) and record the verdict.

        On recovery the endpoint's latency EWMA is reseeded from its own
        ``/stats`` report so routing immediately weights it realistically
        instead of treating it as free.
        """
        healthy = False
        latency: Optional[float] = None
        try:
            try:
                document = endpoint.probe_client.healthz()
                healthy = isinstance(document, dict) and document.get("status") == "ok"
            except Exception:  # noqa: BLE001 - any probe failure means "still down"
                healthy = False
            if healthy:
                try:
                    stats = endpoint.probe_client.stats()
                    reported = stats.get("runtime", {}).get("latency_ewma_seconds")
                    latency = None if reported is None else float(reported)
                except Exception:  # noqa: BLE001 - telemetry seeding is best-effort
                    latency = None
        finally:
            # the probing flag must clear on EVERY exit path — a stuck flag
            # would block all future probes of this endpoint (and can wedge
            # _select waiting on a verdict that never comes)
            with self._cond:
                endpoint.probing = False
                if healthy:
                    endpoint.healthy = True
                    self._failed_probes.discard(endpoint.url)
                    self._down_until = None  # the fleet has capacity again
                    if latency is not None:
                        endpoint.latency_ewma = latency
                else:
                    endpoint.healthy = False
                    now = time.monotonic()
                    endpoint.quarantined_until = now + self.quarantine_seconds
                    self._failed_probes.add(endpoint.url)
                    if len(self._failed_probes) == len(self._endpoints):
                        # every endpoint's latest probe failed: the whole
                        # cluster is unreachable, for every dispatch thread
                        self._down_until = now + self.quarantine_seconds
                self._cond.notify_all()
        return healthy

    def _quarantine(self, endpoint: _Endpoint) -> None:
        with self._cond:
            endpoint.endpoint_errors += 1
            if endpoint.healthy:
                endpoint.healthy = False
                endpoint.quarantines += 1
            endpoint.quarantined_until = time.monotonic() + self.quarantine_seconds
            self._cond.notify_all()

    def _release(self, endpoint: _Endpoint, *, ok: bool, latency: Optional[float] = None) -> None:
        with self._cond:
            endpoint.outstanding -= 1
            if ok:
                endpoint.jobs_completed += 1
                if latency is not None:
                    if endpoint.latency_ewma is None:
                        endpoint.latency_ewma = latency
                    else:
                        alpha = self._latency_smoothing
                        endpoint.latency_ewma = (
                            alpha * latency + (1 - alpha) * endpoint.latency_ewma
                        )
            else:
                endpoint.jobs_failed += 1
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _dispatch_one(self, job: AnalysisJob) -> Schedule:
        """Run one job remotely, failing over across endpoints as needed."""
        wire_error = _arbiter_wire_error(job.problem)
        if wire_error is not None:
            raise _JobError(wire_error)
        attempts = self.retries + 1
        last_error: Optional[ServiceError] = None
        while attempts > 0:
            endpoint = self._select()
            started = time.monotonic()
            try:
                schedule = endpoint.client.analyze(job.problem, algorithm=job.algorithm)
            except ServiceError as exc:
                self._release(endpoint, ok=False)
                if not _is_endpoint_error(exc):
                    raise _JobError(str(exc)) from exc
                self._quarantine(endpoint)
                last_error = exc
                attempts -= 1
                continue
            except Exception as exc:  # noqa: BLE001 - a malformed response, not an outage
                self._release(endpoint, ok=False)
                raise _JobError(f"{type(exc).__name__}: {exc}") from exc
            self._release(endpoint, ok=True, latency=time.monotonic() - started)
            return schedule
        raise _JobError(
            f"gave up after {self.retries + 1} endpoint attempt(s): {last_error}"
        )

    def _dispatch_delta(
        self, jobs: Sequence[AnalysisJob]
    ) -> Tuple[List[Optional[Schedule]], Dict[int, str]]:
        """Run one same-parent probe sub-batch as a single delta request.

        The whole sub-batch occupies one endpoint slot and fails over as a
        unit on endpoint errors (re-running a probe on another server is
        bit-identical — the server recomputes any parent schedule wherever
        the unit lands — so a retried unit cannot diverge).  Server-side
        *job* errors come back through the batch partial-failure contract and
        are returned per local position — never retried.  A 4xx rejection of
        the *request itself* (e.g. a server that does not know the
        ``deltas`` batch form) falls back to one ``POST /analyze`` per probe,
        which every server version speaks.
        """
        wire_error = _arbiter_wire_error(jobs[0].problem.parent.problem)
        if wire_error is not None:
            raise _JobError(wire_error)
        probes = [job.problem for job in jobs]
        algorithm = jobs[0].algorithm
        attempts = self.retries + 1
        last_error: Optional[ServiceError] = None
        while attempts > 0:
            endpoint = self._select()
            started = time.monotonic()
            try:
                schedules = endpoint.client.analyze_many_deltas(probes, algorithm=algorithm)
            except BatchExecutionError as exc:
                # per-probe failures on the server: a job-error outcome — but
                # the HTTP exchange itself succeeded (and carried the other
                # schedules), so the endpoint's routing telemetry records a
                # completed round trip, not a failure
                self._release(endpoint, ok=True, latency=time.monotonic() - started)
                return (
                    list(exc.results),
                    {int(index): str(message) for index, message in exc.failures.items()},
                )
            except ServiceError as exc:
                self._release(endpoint, ok=False)
                if not _is_endpoint_error(exc):
                    # the request (not a probe) was rejected — typically a
                    # server that predates the delta wire form; per-job
                    # dispatch works against every server version
                    return self._dispatch_unit_per_job(jobs)
                self._quarantine(endpoint)
                last_error = exc
                attempts -= 1
                continue
            except Exception as exc:  # noqa: BLE001 - a malformed response, not an outage
                self._release(endpoint, ok=False)
                raise _JobError(f"{type(exc).__name__}: {exc}") from exc
            self._release(endpoint, ok=True, latency=time.monotonic() - started)
            return list(schedules), {}
        raise _JobError(
            f"gave up after {self.retries + 1} endpoint attempt(s): {last_error}"
        )

    def _dispatch_unit_per_job(
        self, jobs: Sequence[AnalysisJob]
    ) -> Tuple[List[Optional[Schedule]], Dict[int, str]]:
        """Per-job fallback for a delta unit (probes as full problems).

        ``POST /analyze`` ships each probe as an ordinary ``repro-problem``
        document (the probe materializes into the payload), so this path
        works against servers of every version — at N-requests cost.
        """
        results: List[Optional[Schedule]] = []
        failures: Dict[int, str] = {}
        for offset, job in enumerate(jobs):
            try:
                results.append(self._dispatch_one(job))
            except _JobError as exc:
                results.append(None)
                failures[offset] = str(exc)
        return results, failures

    def _dispatch_unit(
        self, jobs: Sequence[AnalysisJob]
    ) -> Tuple[List[Optional[Schedule]], Dict[int, str]]:
        """Run one work unit: a delta sub-batch or a plain job."""
        with obs.span("cluster.unit", jobs=len(jobs)):
            if isinstance(jobs[0].problem, OverlayProblem):
                return self._dispatch_delta(jobs)
            return [self._dispatch_one(jobs[0])], {}

    def _plan_units(self, jobs: Sequence[AnalysisJob]) -> List[List[int]]:
        """Partition a batch into dispatch units (lists of batch positions).

        Plain jobs dispatch one-per-request; probe jobs are grouped by
        (parent kernel, algorithm) in first-seen order and chunked to at
        most ``delta_batch`` probes per unit so one large generation still
        fans out across the fleet.  Parameter and structural probes of one
        parent share a unit: they share the parent document and the
        server-side parent schedule.
        """
        units: List[List[int]] = []
        groups: Dict[Tuple[int, str], List[int]] = {}
        for position, job in enumerate(jobs):
            if isinstance(job.problem, OverlayProblem):
                # keyed by parent *identity*: digest-equal parents compiled
                # separately stay in separate units, so every unit's probes
                # share one parent object (what the delta wire form ships)
                groups.setdefault((id(job.problem.parent), job.algorithm), []).append(
                    position
                )
            else:
                units.append([position])
        for positions in groups.values():
            for start in range(0, len(positions), self.delta_batch):
                units.append(positions[start : start + self.delta_batch])
        return units

    def run(
        self,
        jobs: Sequence[AnalysisJob],
        *,
        chunksize: Optional[int] = None,  # noqa: ARG002 - local-pool tuning knob
        progress: Optional[ProgressCallback] = None,
    ) -> List[Schedule]:
        """Run ``jobs`` across the fleet; semantics match the local backends.

        Results come back in submission order and are bit-identical to local
        analysis.  ``chunksize`` is accepted for interface compatibility and
        ignored (remote dispatch is per-unit; the *server* batches its
        queue).  Plain jobs dispatch one request each; probe jobs of one
        parent ship as delta sub-batches (parent problem once + per-probe
        delta records) of at most ``delta_batch`` probes.

        :raises BatchExecutionError: when some jobs failed (bad algorithm,
            analysis error, or retries exhausted) — completed schedules are
            preserved on ``results``, messages on ``failures``.
        :raises ServiceError: when the whole cluster became unreachable; no
            partial results are returned (nothing could have kept running).
        """
        jobs = list(jobs)
        if not jobs:
            return []
        with self._cond:
            if self._closed:
                raise ServiceError("cluster dispatcher is closed")
            self._batches += 1
            self._jobs_dispatched += len(jobs)
        total = len(jobs)
        results: List[Optional[Schedule]] = [None] * total
        failures: Dict[int, str] = {}
        fatal: Optional[ServiceError] = None
        done = 0
        units = self._plan_units(jobs)
        workers = min(len(units), max(1, self.capacity))
        dispatch_span = obs.span(
            "cluster.dispatch",
            jobs=total,
            units=len(units),
            endpoints=len(self._endpoints),
        )
        traced = obs.tracing_enabled()
        with dispatch_span, ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-cluster"
        ) as pool:

            def _submit(unit: List[int]):
                unit_jobs = [jobs[position] for position in unit]
                if not traced:
                    return pool.submit(self._dispatch_unit, unit_jobs)
                # contextvars do not flow into pool threads: carry the active
                # tracer/span over explicitly so unit spans stitch under the
                # cluster.dispatch span (one fresh copy per task — a Context
                # cannot be entered concurrently)
                return pool.submit(
                    contextvars.copy_context().run, self._dispatch_unit, unit_jobs
                )

            futures = {_submit(unit): unit for unit in units}
            for future in as_completed(futures):
                unit = futures[future]
                try:
                    unit_results, unit_failures = future.result()
                except CancelledError:
                    continue  # cancelled below after a fatal outage verdict
                except _JobError as exc:
                    for position in unit:
                        failures[position] = f"{jobs[position].name}: {exc}"
                except ServiceError as exc:
                    if fatal is None:
                        fatal = exc
                        # total outage: drop the not-yet-started units now —
                        # already-running ones fail fast through the cached
                        # all-down verdict (_down_until) instead of each
                        # re-serving the quarantine + probe-sweep latency
                        for pending in futures:
                            pending.cancel()
                else:
                    for offset, position in enumerate(unit):
                        schedule = (
                            unit_results[offset] if offset < len(unit_results) else None
                        )
                        if schedule is not None:
                            results[position] = schedule
                        else:
                            message = unit_failures.get(offset, "job was lost")
                            failures[position] = f"{jobs[position].name}: {message}"
                if progress is not None:
                    done += len(unit)
                    progress(
                        ProgressEvent(
                            done=done, total=total, job_name=jobs[unit[-1]].name
                        )
                    )
        if fatal is not None:
            raise fatal
        if failures:
            raise BatchExecutionError(
                f"{len(failures)} of {total} job(s) failed: {_summarize(failures)}",
                failures=failures,
                results=results,
            )
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # health / telemetry / lifecycle
    # ------------------------------------------------------------------

    def probe(self) -> List[Dict[str, Any]]:
        """Probe every endpoint now; returns one status record per endpoint.

        Each record carries ``url``, ``healthy``, the routing snapshot fields
        of :meth:`stats`, and — for healthy endpoints — the endpoint's own
        ``/stats`` document under ``stats``.  Used by ``repro-rta cluster``
        and handy before a long run to fail fast on a misconfigured fleet.
        """
        records: List[Dict[str, Any]] = []
        for endpoint in self._endpoints:
            with self._cond:
                if endpoint.probing:  # another thread is already on it
                    healthy = endpoint.healthy
                else:
                    endpoint.probing = True
                    healthy = None
            if healthy is None:
                healthy = self._probe_endpoint(endpoint)
            document: Optional[Dict[str, Any]] = None
            if healthy:
                try:
                    document = endpoint.probe_client.stats()
                except ServiceError:
                    document = None
            with self._cond:
                record = endpoint.snapshot()
            record["stats"] = document
            records.append(record)
        return records

    def stats(self) -> Dict[str, Any]:
        """Telemetry snapshot: per-endpoint routing state plus run counters."""
        with self._cond:
            return {
                "endpoints": [endpoint.snapshot() for endpoint in self._endpoints],
                "capacity": self.capacity,
                "batches": self._batches,
                "jobs_dispatched": self._jobs_dispatched,
                "retries": self.retries,
                "quarantine_seconds": self.quarantine_seconds,
            }

    def close(self) -> None:
        """Stop accepting work.  Idempotent.

        In-flight HTTP requests complete; jobs still waiting for an endpoint
        slot fail their run with :class:`~repro.errors.ServiceError`.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ClusterDispatcher":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
