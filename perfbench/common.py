"""Machinery shared by the three perfbench workloads.

* statistics helpers (median, nearest-rank percentile, per-operation-type
  estimates that do not depend on where a run's deadline cut a round);
* output checks (schedule canonicalisation, golden records, a failure log);
* span attribution: self time per span and per layer, computed from the
  :mod:`repro.obs` span records of the benchmark process and of the server;
* call-site instrumentation of public functions for traced passes;
* the ``repro-rta serve`` subprocess and a keep-alive HTTP client.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro import obs
from repro.core import AnalysisProblem

#: seed whose results are pinned in golden.json
DEFAULT_SEED = 1
#: generator seed behind every base problem (the paper suite's seed)
BASE_SEED = 2020

BENCH_DIR = Path(__file__).resolve().parent


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def derive_seed(seed: int, *parts: Any) -> int:
    """Stable 31-bit seed for one generated input (same seed, same input)."""
    text = repr((seed,) + parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big") & 0x7FFFFFFF


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of the samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def type_medians(samples: Iterable[Tuple[Any, float]]) -> Dict[Any, float]:
    """Median duration per operation type from ``(type, seconds)`` samples."""
    grouped: Dict[Any, List[float]] = {}
    for kind, seconds in samples:
        grouped.setdefault(kind, []).append(seconds)
    return {kind: median(values) for kind, values in grouped.items()}


def round_seconds(samples: Iterable[Tuple[Any, float]]) -> float:
    """Time of one round that runs every operation type once.

    The sum of the per-type medians, so it does not depend on how far past
    its first complete round a run got before its deadline.
    """
    return sum(type_medians(samples).values())


def op_geomean(samples: Iterable[Tuple[Any, float]]) -> float:
    """Typical operation time of a workload made of whole rounds.

    Each operation type contributes its median, weighted by its share of
    the samples (for whole rounds, its share of a round), and the types are
    combined as a geometric mean: a 10% change in any type moves the result
    by the same amount whatever that type's absolute cost, so neither the
    largest problems nor the most frequent requests drown out the rest.
    """
    grouped: Dict[Any, List[float]] = {}
    for kind, seconds in samples:
        grouped.setdefault(kind, []).append(seconds)
    total = sum(len(values) for values in grouped.values())
    logs = sum(len(values) * math.log(median(values)) for values in grouped.values())
    return math.exp(logs / total) if total else 0.0


# ----------------------------------------------------------------------
# environment and working directory
# ----------------------------------------------------------------------


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref:"):
            return text
        ref = text.split(None, 1)[1]
        loose = root / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


#: time of the reference loop on the nominal host every reported time is scaled to
REFERENCE_NOMINAL_S = 0.0035


def reference_seconds() -> float:
    """Fastest of three runs of a fixed pure-Python loop: the host's speed now."""
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(50_000):
            total += value * value
        best = min(best, time.perf_counter() - started)
    return best


def host_scale() -> float:
    """Factor converting a time measured next to this call to the nominal host.

    A shared 2-vCPU VM changed CPU speed by up to 1.6x within minutes,
    uniformly for all CPU work: rounds of the same CLI calls in one process
    varied by 10% or more, while their ratio to this reference loop, timed
    just before each call, varied by about 1%.  Times of work done in the
    benchmark's own process (CLI calls) are therefore reported as
    ``measured * REFERENCE_NOMINAL_S / reference``, in seconds of the
    nominal host; raw times are printed on the ``# info`` line.  Served
    work is scaled by :class:`HostSpeed` instead.
    """
    return REFERENCE_NOMINAL_S / reference_seconds()


def environment(root: Path, seed: int) -> Dict[str, Any]:
    """What a result depends on besides the code: recorded with every run."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.core.vector import resolve_backend

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "analysis_backend": resolve_backend(),
        "seed": seed,
        "commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src"),
        "reference_ms": round(1000.0 * reference_seconds(), 3),
    }


class Context:
    """What one workload run gets from the command line and the harness."""

    def __init__(
        self,
        root: Path,
        work: "WorkDir",
        seed: int,
        seconds: float,
        trace: bool,
        write_golden: bool = False,
    ) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.write_golden = write_golden
        self.checks = Checks()
        self.golden = load_golden_file() if seed == DEFAULT_SEED else None


class WorkDir:
    """Per-run scratch directory inside the checkout, removed on exit."""

    def __init__(self, root: Path) -> None:
        base = root / ".perfbench_work"
        base.mkdir(exist_ok=True)
        self.path = base / f"run-{os.getpid()}-{time.time_ns()}"
        self.path.mkdir()

    def sub(self, name: str) -> Path:
        path = self.path / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.path.parent.rmdir()


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------


def strip_schedule(document: Dict[str, Any]) -> Dict[str, Any]:
    """A schedule document without its one nondeterministic field.

    The file envelope (``format``/``version``) of a saved schedule is dropped
    too, so a CLI output compares equal to a served or in-process schedule.
    """
    stats = {k: v for k, v in document.get("stats", {}).items() if k != "wall_time_seconds"}
    body = {k: v for k, v in document.items() if k not in ("format", "version")}
    return {**body, "stats": stats}


def canonical(schedule: Any) -> Dict[str, Any]:
    """Stripped JSON form of an in-process :class:`~repro.core.Schedule`."""
    return strip_schedule(json.loads(json.dumps(schedule.to_dict())))


def entries_digest(document: Dict[str, Any]) -> str:
    payload = json.dumps(document.get("entries", []), sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def schedule_record(document: Dict[str, Any]) -> List[Any]:
    """The golden form of one schedule: ``[makespan, entries digest]``."""
    return [document.get("makespan"), entries_digest(document)]


class Checks:
    """Counts operations and the checks that failed on them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def operation(self, ok: bool, what: str = "") -> None:
        """One measured operation; ``ok`` False counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what or "operation failed")

    def check(self, ok: bool, what: str) -> bool:
        """One output check not tied to a single operation."""
        if not ok:
            self.problems.append(what)
        return ok

    @property
    def correct(self) -> bool:
        return not self.problems


GOLDEN_PATH = BENCH_DIR / "golden.json"


def load_golden_file() -> Dict[str, Any]:
    """Results pinned for :data:`DEFAULT_SEED`, keyed by workload."""
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def check_golden(ctx: "Context", workload: str, key: str, value: Any) -> bool:
    """Compare one result with its golden record; records new ones when asked."""
    if ctx.golden is None:
        return True
    pinned = ctx.golden.setdefault(workload, {})
    if ctx.write_golden:
        pinned[key] = value
        return True
    if key not in pinned:
        return True
    return ctx.checks.check(pinned[key] == value, f"{workload} {key}: {value} != golden {pinned[key]}")


def base_seed(*parts: Any) -> int:
    """Generator seed of a base problem: fixed, so runs differ only in variants.

    Random task graphs of one size differ in cost by more than the
    run-to-run noise of a shared VM, so the seeded inputs are variants of
    fixed bases.
    """
    return derive_seed(BASE_SEED, *parts)


def variant_of(problem: AnalysisProblem, variant: int, horizon: Optional[int] = None) -> AnalysisProblem:
    """``problem`` plus one independent task ``x<variant>``.

    The task copies the WCET and accesses of task ``variant % n`` and runs
    last on core ``variant % cores``.  Every variant is a distinct problem
    *structure*: a cache miss on first sight that shares no compiled kernel
    with another variant, made without a new generation or validation.
    """
    from repro.model.task import Task

    tasks = list(problem.graph)
    model = tasks[variant % len(tasks)]
    name = f"x{variant}"
    graph = problem.graph.copy()
    graph.add_task(Task(name=name, wcet=model.wcet, demand=model.demand))
    mapping = problem.mapping.copy()
    cores = sorted(mapping.cores())
    mapping.assign(name, cores[variant % len(cores)])
    return AnalysisProblem(
        graph,
        mapping,
        problem.platform,
        problem.arbiter,
        horizon=problem.horizon if horizon is None else horizon,
        name=f"{problem.name}-v{variant}",
        validate=False,
    )


# ----------------------------------------------------------------------
# span attribution
# ----------------------------------------------------------------------

#: span name -> layer.  Program spans keep their names; the benchmark's own
#: spans use the names the program is expected to adopt for the same phases.
SPAN_LAYER = {
    "request.decode": "io.problem_from_dict",
    "problem.validate": "model.validate",
    "kernel.compile": "core.kernel.compile",
    "analyze.incremental": "core.incremental",
    "incremental.event_loop": "core.incremental",
    "analyze.fixedpoint": "core.fixedpoint",
    "fixedpoint.outer": "core.fixedpoint",
    "analyze.generation": "core.vector.generation",
    "job.digest": "engine.digest",
    "cache.lookup_many": "engine.cache.get_many",
    "cache.put_many": "engine.cache.put_many",
    "response.encode": "io.schedule_encode",
    "cli.report": "cli.report",
    "queue.wait": "service.queue.wait",
}


def self_times(spans: Sequence[obs.Span]) -> Dict[str, float]:
    """Span id -> its duration minus the part its children cover."""
    children: Dict[str, List[obs.Span]] = {}
    for record in spans:
        if record.parent_id:
            children.setdefault(record.parent_id, []).append(record)
    result: Dict[str, float] = {}
    for record in spans:
        lo, hi = record.start, record.start + record.duration
        intervals = sorted(
            (max(lo, c.start), min(hi, c.start + c.duration))
            for c in children.get(record.span_id, ())
        )
        covered, cursor = 0.0, lo
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        result[record.span_id] = max(record.duration - covered, 0.0)
    return result


def layer_self_times(spans: Sequence[obs.Span]) -> Dict[str, float]:
    """Layer -> summed self time of the spans mapped to it."""
    own = self_times(spans)
    layers: Dict[str, float] = {}
    for record in spans:
        layer = SPAN_LAYER.get(record.name)
        if layer is not None:
            layers[layer] = layers.get(layer, 0.0) + own[record.span_id]
    return layers


def analyses(spans: Sequence[obs.Span]) -> Iterator[Tuple[str, str, float]]:
    """``(layer, problem name, seconds)`` of every analyzer run in ``spans``.

    The seconds are the analyzer span's self time plus that of its children
    in the same layer (the event loop or outer sweeps), so a kernel compile
    nested in the run is not counted as analysis.
    """
    own = self_times(spans)
    for record in spans:
        if record.name not in ("analyze.incremental", "analyze.fixedpoint"):
            continue
        layer = SPAN_LAYER[record.name]
        seconds = own[record.span_id] + sum(
            own[child.span_id]
            for child in spans
            if child.parent_id == record.span_id and SPAN_LAYER.get(child.name) == layer
        )
        yield layer, str(record.attributes.get("problem", "")), seconds


def _spanned(name: str, function: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with obs.span(name):
            return function(*args, **kwargs)

    wrapper.__wrapped__ = function  # type: ignore[attr-defined]
    return wrapper


@contextlib.contextmanager
def instrumented(*targets: Tuple[Any, str, str]) -> Iterator[None]:
    """Wrap public callables in spans for the duration of a traced pass.

    ``AnalysisProblem.validate`` is always wrapped (span ``problem.validate``)
    so validation nests inside whatever decode called it; each extra target
    is ``(owner, attribute, span name)``.
    """
    patches = [(AnalysisProblem, "validate", "problem.validate"), *targets]
    originals = [(owner, attribute, getattr(owner, attribute)) for owner, attribute, _ in patches]
    try:
        for (owner, attribute, name), (_, _, original) in zip(patches, originals):
            setattr(owner, attribute, _spanned(name, original))
        yield
    finally:
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)


# ----------------------------------------------------------------------
# the served path
# ----------------------------------------------------------------------


class Response:
    __slots__ = ("status", "seconds", "body")

    def __init__(self, status: int, seconds: float, body: bytes) -> None:
        self.status = status
        self.seconds = seconds
        self.body = body

    def json(self) -> Any:
        return json.loads(self.body)


class Client:
    """One persistent HTTP/1.1 connection; latency is send to last byte."""

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self.connection = http.client.HTTPConnection(host, port, timeout=timeout)

    def request(
        self, method: str, path: str, body: Optional[bytes] = None, traceparent: Optional[str] = None
    ) -> Response:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        if traceparent:
            headers[obs.TRACEPARENT_HEADER] = traceparent
        started = time.perf_counter()
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        data = response.read()
        return Response(response.status, time.perf_counter() - started, data)

    def close(self) -> None:
        self.connection.close()


class Server:
    """A ``repro-rta serve`` subprocess with a fresh SQLite cache directory."""

    def __init__(self, root: Path, work: Path, workers: int = 2, boot_timeout: float = 60.0) -> None:
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        command = [
            sys.executable, "-m", "repro.cli.main", "serve",
            "--port", "0", "--workers", str(workers), "--cache-dir", str(work / "cache"),
        ]
        self._stdout = open(work / "stdout.log", "w+")
        self._stderr = open(work / "stderr.log", "w")
        self.process = subprocess.Popen(
            command, stdout=self._stdout, stderr=self._stderr, env=env,
            cwd=str(work), start_new_session=True,
        )
        deadline = time.monotonic() + boot_timeout
        url = None
        while url is None:
            self._stdout.seek(0)
            for line in self._stdout.read().splitlines():
                if line.startswith("serving on "):
                    url = line.split()[-1]
            if url is None:
                if self.process.poll() is not None or time.monotonic() > deadline:
                    self.close()
                    raise RuntimeError(f"server failed to boot; see {work / 'stderr.log'}")
                time.sleep(0.005)
        self.host, port = url.split("//", 1)[1].rsplit(":", 1)
        self.port = int(port)

    def client(self) -> Client:
        return Client(self.host, self.port)

    def stats(self) -> Dict[str, Any]:
        client = self.client()
        try:
            return client.request("GET", "/stats").json()
        finally:
            client.close()

    def close(self) -> None:
        """Graceful stop (SIGINT), then make sure the whole group is gone."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(self.process.pid, signal.SIGKILL)
        self.process.wait()
        self._stdout.close()
        self._stderr.close()


class HostSpeed:
    """The host's speed over one served run, for :func:`served_seconds`.

    Served work runs in the server's processes on either CPU, and the two
    CPUs' speeds shift independently, within a second and over minutes.  So
    :meth:`sample` times the reference loop on each CPU in turn, only while
    no request is in flight (it would compete with the server otherwise),
    and the run's scale is the median over all samples: it follows the
    slow drifts that move whole runs, not the fast noise a median over many
    requests already absorbs.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        allowed = os.sched_getaffinity(0)
        try:
            for cpu in sorted(allowed):
                os.sched_setaffinity(0, {cpu})
                self.samples.append(reference_seconds())
        finally:
            os.sched_setaffinity(0, allowed)

    def scale(self) -> float:
        return REFERENCE_NOMINAL_S / median(self.samples)


def repeated_setup(boot: Callable[[int], Server], repeats: int, speed: HostSpeed) -> Tuple[Server, float]:
    """Boot and warm up a server ``repeats`` times; keep the last one.

    ``boot(repeat)`` starts a server and warms it up (closing it itself if
    that fails).  Returns the kept server and the raw median set-up time;
    ``speed`` is sampled before and after every set-up.
    """
    server: Optional[Server] = None
    times = []
    for repeat in range(repeats):
        if server is not None:
            server.close()
        speed.sample()
        started = time.perf_counter()
        server = boot(repeat)
        times.append(time.perf_counter() - started)
    speed.sample()
    assert server is not None
    return server, median(times)


def transport_floor(server: Server, probes: int = 8) -> float:
    """Median latency of ``GET /healthz`` on a reused keep-alive connection.

    Nearly all of it (about 44 ms) is a fixed wait in the TCP stack, the
    delayed-ACK timer, which every request on a reused connection pays and
    which does not follow the CPU's speed.
    """
    client = server.client()
    try:
        times = [client.request("GET", "/healthz").seconds for _ in range(probes + 1)]
    finally:
        client.close()
    return median(times[1:])  # the first request on a fresh connection does not wait


def served_seconds(latency: float, floor: float, scale: float) -> float:
    """A served latency on the nominal host: the transport floor as measured,
    the rest (CPU work in the server and the client) scaled."""
    return min(latency, floor) + max(latency - floor, 0.0) * scale


def traced_request(send: Callable[[Optional[str]], Response], path: str) -> Tuple[Response, obs.Tracer, obs.Span]:
    """One request under its own tracer, with the server's spans merged in.

    ``send(traceparent)`` performs the request; the benchmark's
    ``client.request`` span times it, and the spans the server returns under
    the response's ``trace`` key hang beneath that span.
    """
    tracer = obs.Tracer(service="perfbench")
    with tracer.activate(), obs.span("client.request", path=path) as root:
        response = send(obs.current_traceparent())
    if response.status == 200:
        tracer.record_foreign(response.json().get("trace", []))
    return response, tracer, root


def check_counts(ctx: "Context", workload: str, counts: Dict[str, float], final: Dict[str, Any], exact: Sequence[str]) -> None:
    """The run's one pool, and the first round's exact counts against golden."""
    pools = final["runtime"]["pools_created"]
    ctx.checks.check(pools == 1, f"{workload}: server created {pools} worker pools, expected 1")
    check_golden(ctx, workload, "round1_counts", {key: counts[key] for key in exact})


def stats_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    """Exact counters between two ``GET /stats`` snapshots."""
    rb, ra = before["runtime"], after["runtime"]
    cb, ca = rb["cache"], ra["cache"]
    hits = ca["hits"] - cb["hits"]
    lookups = ca["lookups"] - cb["lookups"]
    hb, ha = rb.get("latency_histogram") or {}, ra.get("latency_histogram") or {}
    jobs = ha.get("count", 0) - hb.get("count", 0)
    job_seconds = ha.get("sum", 0.0) - hb.get("sum", 0.0)
    return {
        "cache_hits": hits,
        "cache_lookups": lookups,
        "cache_hit_rate": hits / lookups if lookups else 0.0,
        "store_transactions": ca["transactions"] - cb["transactions"],
        "queue_coalesced": after["queue"]["coalesced"] - before["queue"]["coalesced"],
        "kernel_compilations": ra["kernel_compilations"] - rb["kernel_compilations"],
        "vector_sweeps": ra["vector_sweeps"] - rb["vector_sweeps"],
        "generation_passes": ra["generation_passes"] - rb["generation_passes"],
        "jobs": jobs,
        "job_ms": 1000.0 * job_seconds / jobs if jobs else 0.0,
    }


def served_attribution(spans: Sequence[obs.Span], root: obs.Span) -> Tuple[float, float, float]:
    """``(latency, transport, server-attributed)`` seconds of one traced request.

    ``root`` is the benchmark's ``client.request`` span; the server's spans
    (merged from the response) hang under it.  Transport is the client
    latency the server's ``http.request`` span does not cover; the attributed
    server time is the part of ``http.request`` covered by its child spans.
    """
    handler = next((s for s in spans if s.name == "http.request" and s.parent_id == root.span_id), None)
    if handler is None:
        return root.duration, 0.0, 0.0
    own = self_times(spans)
    return root.duration, max(root.duration - handler.duration, 0.0), handler.duration - own[handler.span_id]


class TracedRequest(NamedTuple):
    """One traced request, ready for layer accounting."""

    tracer: obs.Tracer  # the benchmark's spans, the server's and the replay's
    root: obs.Span  # the benchmark's ``client.request`` span
    size: int  # size class of the problems the request carries
    problems: int  # how many it carries
    extra: Dict[str, float]  # layer -> seconds measured outside ``tracer``


#: replayed layers that run inside ``http.request`` without a server span
UNSPANNED_LAYERS = ("io.problem_from_dict", "model.validate", "engine.digest", "io.schedule_encode")


def size_of_name(name: str) -> Optional[int]:
    """``LS64-n400-v3`` (or a probe of it) -> 400."""
    return next((int(part[1:]) for part in name.split("-") if part[:1] == "n" and part[1:].isdigit()), None)


def served_layers(traced: Sequence[TracedRequest], per_request: Sequence[str]) -> Dict[str, float]:
    """Per-layer self times of a traced round of served requests.

    Decode and validation are per problem and size class, analyzer runs per
    run and size class, each layer in ``per_request`` a mean per request.
    Server spans give the queue, cache lookup and analysis; the in-process
    replays estimate decode, validation, digest and encode, which run inside
    ``http.request`` without a span of their own.  Coverage counts transport,
    the server's child spans and at most the replayed phases' time.
    """
    totals: Dict[str, float] = {}
    per_size: Dict[str, List[float]] = {}
    handlers, transports = [], []
    latency = attributed = 0.0
    for request in traced:
        spans = request.tracer.spans
        total, transport, server_attributed = served_attribution(spans, request.root)
        handler = total - transport
        layers = layer_self_times(spans)
        for layer, seconds in request.extra.items():
            layers[layer] = layers.get(layer, 0.0) + seconds
        replayed = sum(layers.get(layer, 0.0) for layer in UNSPANNED_LAYERS)
        latency += total
        attributed += transport + server_attributed + min(handler - server_attributed, replayed)
        handlers.append(handler)
        transports.append(transport)
        for layer, seconds in layers.items():
            totals[layer] = totals.get(layer, 0.0) + seconds
        for layer in ("io.problem_from_dict", "model.validate"):
            share = layers.get(layer, 0.0) / request.problems
            per_size.setdefault(f"{layer}_ms.n{request.size}", []).extend([share] * request.problems)
        for layer, problem, seconds in analyses(spans):
            size = size_of_name(problem)
            if size is not None:
                per_size.setdefault(f"{layer}_ms.n{size}", []).append(seconds)
    count = len(traced)
    result = {name: 1000.0 * sum(values) / len(values) for name, values in per_size.items()}
    for layer in per_request:
        result[f"{layer}_ms"] = 1000.0 * totals.get(layer, 0.0) / count
    result["service.server.handler_ms"] = 1000.0 * sum(handlers) / count
    result["service.server.transport_ms"] = 1000.0 * median(transports)
    result["trace.coverage"] = attributed / latency if latency else 0.0
    return result
