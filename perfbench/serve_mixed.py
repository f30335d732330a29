"""serve-mixed: the request-serving path, cache hits and misses side by side.

The run's requests are made first.  Set-up then boots ``repro-rta serve
--workers 2`` (process backend, fresh SQLite ``--cache-dir``) and builds its
worker pool with one warm-up batch.  Two persistent keep-alive connections
then run a closed loop with no think time.
Each connection's round is 32 requests in a seeded order: 28 ``POST
/analyze`` and 4 ``POST /batch`` of 8 n=100 problems, half already seen.
Of the analyze calls, 7 are first sightings (n = 100 x5, 400, 1000) and 21
repeat a problem that connection already sent (n = 100 x13, 400 x7, 1000),
so the hit p50 falls in the n=100 class and the hit p90 in the n=400 class.
A repeat of a size not yet seen is sent as a first sighting instead (only
early in the first round).  Each class is half LS and half NL problems.
The two connections use disjoint problems, so hit and miss counts are fixed
by the sequence and nothing coalesces across connections.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro import obs
from repro.core import analyze
from repro.core.schedule import Schedule
from repro.core.validation import validate_schedule
from repro.engine.cache import ResultCache
from repro.engine.jobs import problem_digest
from repro.errors import ReproError
from repro.generators import fixed_ls_workload, fixed_nl_workload
from repro.io.json_io import problem_from_dict, problem_to_dict

from common import (
    Context,
    HostSpeed,
    Response,
    Server,
    TracedRequest,
    base_seed,
    canonical,
    check_counts,
    check_golden,
    derive_seed,
    instrumented,
    median,
    op_geomean,
    percentile,
    repeated_setup,
    schedule_record,
    served_layers,
    stats_delta,
    strip_schedule,
    traced_request,
    variant_of,
)

NAME = "serve-mixed"
CONNECTIONS = 2
SIZES = (100, 400, 1000)
MODES = ("LS", "NL")
ROUND_REQUESTS = 32
BATCH_EVERY = 8
MISS_SIZES = (100,) * 5 + (400, 1000)
HIT_SIZES = (100,) * 13 + (400,) * 7 + (1000,)
BATCH_SIZE = 8
BATCH_SEEN = 4
PRIMERS = 4
#: three rounds per connection give the hit p90 more than ten samples beyond it
MIN_ROUNDS = 3
MAX_ROUNDS = 4
SETUP_REPEATS = 9
#: first-round ``GET /stats`` counts that repeat exactly for a seed; store
#: transactions are left out, as they depend on how the two connections'
#: requests land in the server's queue drains
EXACT_COUNTS = (
    "cache_hits", "cache_lookups", "queue_coalesced", "kernel_compilations",
    "vector_sweeps", "generation_passes", "jobs",
)


class Request(NamedTuple):
    kind: str  # "hit", "miss" or "batch"
    size: int
    path: str
    body: bytes
    names: Tuple[str, ...]  # problems carried, in order
    new: Tuple[str, ...]  # of which sent for the first time

    @property
    def op_type(self) -> Tuple[str, str, int]:
        """Kind, problem mode (``LS+NL`` for a batch) and size class."""
        return self.kind, "+".join(sorted({name[:2] for name in self.names})), self.size


class Record(NamedTuple):
    connection: int
    round: int
    request: Request
    response: Response


def base_problems() -> Dict[str, Any]:
    bases = {}
    for size in SIZES:
        for mode, generate in (("LS", fixed_ls_workload), ("NL", fixed_nl_workload)):
            workload = generate(size, 64, seed=base_seed(NAME, mode, size))
            bases[f"{mode}{size}"] = workload.to_problem()
    return bases


class Sequence:
    """One connection's fixed request sequence (and its problem registry).

    LS and NL problems of one size differ in cost by up to 2x, so the
    sequence alternates them, from a seeded start, in every stream of new
    problems and in the repeats of each size: every seed sends each class
    half LS and half NL.
    """

    def __init__(self, seed: int, connection: int, bases: Dict[str, Any]) -> None:
        self.rng = random.Random(derive_seed(seed, NAME, "sequence", connection))
        self.connection = connection
        self.bases = bases
        #: variant numbers: seeded, and disjoint between connections
        self.first_variant = derive_seed(seed, NAME, "variants") % 100_000 * CONNECTIONS + connection
        self.count = 0
        #: per stream of choices, how many were made; the seeded start mode
        self.turns: Dict[Tuple[Any, ...], int] = {}
        self.start = self.rng.randrange(len(MODES))
        self.seen: Dict[Tuple[str, int], List[str]] = {(m, s): [] for m in MODES for s in SIZES}
        #: problem name -> (problem, size)
        self.problems: Dict[str, Tuple[Any, int]] = {}
        self.documents: Dict[str, Dict[str, Any]] = {}
        self.analyze_bodies: Dict[str, bytes] = {}
        self.primers = tuple(self.new(100, "primer") for _ in range(PRIMERS))
        self.rounds: List[List[Request]] = []

    def mode(self, *stream: Any) -> str:
        """The next mode of an alternating stream."""
        turn = self.turns.get(stream, 0)
        self.turns[stream] = turn + 1
        return MODES[(self.start + turn) % len(MODES)]

    def new(self, size: int, stream: str) -> str:
        mode = self.mode(stream, size)
        problem = variant_of(self.bases[f"{mode}{size}"], self.first_variant + CONNECTIONS * self.count)
        self.count += 1
        self.problems[problem.name] = (problem, size)
        self.documents[problem.name] = problem_to_dict(problem)
        self.seen[mode, size].append(problem.name)
        return problem.name

    def repeat(self, size: int) -> Optional[str]:
        """A problem of ``size`` sent before, of the stream's next mode if any."""
        wanted = self.mode("hit", size)
        other = next(m for m in MODES if m != wanted)
        names = self.seen[wanted, size] or self.seen[other, size]
        return self.rng.choice(names) if names else None

    def analyze_request(self, kind: str, name: str) -> Request:
        body = self.analyze_bodies.get(name)
        if body is None:
            body = json.dumps({"problem": self.documents[name]}).encode("utf-8")
            self.analyze_bodies[name] = body
        new = (name,) if kind == "miss" else ()
        return Request(kind, self.problems[name][1], "/analyze", body, (name,), new)

    def add_round(self) -> None:
        slots = [("miss", size) for size in MISS_SIZES] + [("hit", size) for size in HIT_SIZES]
        self.rng.shuffle(slots)
        requests = []
        for position in range(ROUND_REQUESTS):
            if position % BATCH_EVERY == BATCH_EVERY - 1:
                seen = [
                    name
                    for mode in MODES
                    for name in self.rng.sample(self.seen[mode, 100], BATCH_SEEN // len(MODES))
                ]
                new = [self.new(100, "batch") for _ in range(BATCH_SIZE - BATCH_SEEN)]
                names = seen + new
                self.rng.shuffle(names)
                body = json.dumps({"problems": [self.documents[n] for n in names]}).encode("utf-8")
                requests.append(Request("batch", 100, "/batch", body, tuple(names), tuple(new)))
            else:
                kind, size = slots.pop()
                name = self.repeat(size) if kind == "hit" else None
                if name is not None:
                    requests.append(self.analyze_request("hit", name))
                else:
                    requests.append(self.analyze_request("miss", self.new(size, "miss")))
        self.rounds.append(requests)

    def primer_documents(self) -> List[Dict[str, Any]]:
        return [self.documents[name] for name in self.primers]


def make_sequences(seed: int, bases: Dict[str, Any]) -> List[Sequence]:
    """Every connection's requests for the run, the traced round included."""
    sequences = [Sequence(seed, c, bases) for c in range(CONNECTIONS)]
    for sequence in sequences:
        for _ in range(MAX_ROUNDS + 1):
            sequence.add_round()
    return sequences


def boot(ctx: Context, repeat: int, sequences: List[Sequence]) -> Server:
    """Start a server and build its worker pool with one warm-up batch."""
    server = Server(ctx.root, ctx.work.sub(f"server-{repeat}"))
    try:
        body = {"problems": [d for s in sequences for d in s.primer_documents()]}
        client = server.client()
        try:
            warmup = client.request("POST", "/batch", json.dumps(body).encode("utf-8"))
        finally:
            client.close()
        if warmup.status != 200:
            raise RuntimeError(f"warm-up batch failed with HTTP {warmup.status}")
    except BaseException:
        server.close()
        raise
    return server


def send(client_box: List[Any], server: Server, request: Request, traceparent: Optional[str] = None) -> Response:
    try:
        return client_box[0].request("POST", request.path, request.body, traceparent)
    except (OSError, http.client.HTTPException) as exc:
        client_box[0].close()
        client_box[0] = server.client()
        return Response(0, 0.0, str(exc).encode("utf-8"))


def measure(ctx: Context, server: Server, sequences: List[Sequence]) -> Dict[str, Any]:
    """Closed loop on every connection, in whole rounds.

    The connections meet at a barrier after each round.  There, with no
    request in flight, ``GET /stats`` is read after the first round, and the
    next round is started or not: at least ``MIN_ROUNDS``, and more while
    the seconds last, up to ``MAX_ROUNDS``.
    """
    records: List[Record] = []
    lock = threading.Lock()
    walls: List[float] = []
    snapshots = {"before": server.stats()}
    started = time.perf_counter()
    state = {"go": True, "round_started": started}

    def between_rounds() -> None:
        walls.append(time.perf_counter() - state["round_started"])
        if len(walls) == 1:
            snapshots["round1"] = server.stats()
        state["go"] = len(walls) < MAX_ROUNDS and (
            len(walls) < MIN_ROUNDS or time.perf_counter() - started < ctx.seconds
        )
        state["round_started"] = time.perf_counter()

    barrier = threading.Barrier(CONNECTIONS, action=between_rounds, timeout=600)

    def loop(connection: int) -> None:
        box = [server.client()]
        try:
            for number, requests in enumerate(sequences[connection].rounds[:MAX_ROUNDS]):
                done = [Record(connection, number, r, send(box, server, r)) for r in requests]
                with lock:
                    records.extend(done)
                barrier.wait()
                if not state["go"]:
                    break
        except BaseException:
            barrier.abort()
            raise
        finally:
            box[0].close()

    threads = [threading.Thread(target=loop, args=(c,)) for c in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "records": records,
        "rounds": len(walls),
        "walls": walls,
        "counts": stats_delta(snapshots["before"], snapshots["round1"]),
    }


def traced_round(server: Server, sequences: List[Sequence], number: int) -> Dict[str, Any]:
    """Round ``number`` of every connection, each request under its own tracer."""
    traced: List[Tuple[Record, obs.Tracer, obs.Span]] = []
    lock = threading.Lock()
    before = server.stats()

    def loop(connection: int) -> None:
        box = [server.client()]
        try:
            for request in sequences[connection].rounds[number]:
                response, tracer, root = traced_request(
                    lambda tp: send(box, server, request, tp), request.path
                )
                with lock:
                    traced.append((Record(connection, number, request, response), tracer, root))
        finally:
            box[0].close()

    threads = [threading.Thread(target=loop, args=(c,)) for c in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"traced": traced, "counts": stats_delta(before, server.stats())}


def replay(record: Record, tracer: obs.Tracer, cache: ResultCache) -> None:
    """Re-run the request's in-handler phases in-process, under spans."""
    request = record.request
    if record.response.status != 200:
        return
    document = record.response.json()
    schedules = [document["schedule"]] if request.kind != "batch" else document["schedules"]
    with tracer.activate(), obs.span("bench.replay"), instrumented():
        with obs.span("request.decode"):
            body = json.loads(request.body)
            records = body["problems"] if request.kind == "batch" else [body["problem"]]
            problems = [problem_from_dict(r) for r in records]
        keys = []
        for problem in problems:
            with obs.span("job.digest"):
                keys.append(problem_digest(problem))
        decoded = [Schedule.from_dict(s) for s in schedules]
        for schedule in decoded:
            with obs.span("response.encode"):
                json.dumps(schedule.to_dict())
        fresh = [(k, s, None) for n, k, s in zip(request.names, keys, decoded) if n in request.new]
        if fresh:
            with obs.span("cache.put_many"):
                cache.put_many(fresh)


def check(ctx: Context, records: List[Record], sequences: List[Sequence]) -> Dict[str, dict]:
    """Every response against the in-process oracle; returns documents by name."""
    expected: Dict[str, dict] = {}
    served: Dict[str, dict] = {}
    for record in records:
        request, response = record.request, record.response
        what = f"{NAME} {request.kind} {request.names[0]}"
        if response.status != 200:
            ctx.checks.operation(False, f"{what}: HTTP {response.status}")
            continue
        document = response.json()
        if request.kind == "batch":
            schedules = document.get("schedules") or []
            ok = not document.get("failures") and len(schedules) == len(request.names)
        else:
            schedules = [document.get("schedule")]
            ok = True
        sequence = sequences[record.connection]
        for name, schedule in zip(request.names, schedules):
            if schedule is None:
                ok = False
                continue
            schedule = strip_schedule(schedule)
            if name not in expected:
                problem = sequence.problems[name][0]
                expected[name] = canonical(analyze(problem))
                try:
                    validate_schedule(problem, Schedule.from_dict(schedule))
                except ReproError as exc:
                    ctx.checks.check(False, f"{what}: invalid schedule: {exc}")
                if record.round == 0:
                    check_golden(ctx, NAME, name, schedule_record(schedule))
                served[name] = schedule
            ok = ok and schedule == expected[name]
        ctx.checks.operation(ok, f"{what}: served schedule differs from in-process analysis")
    return served


def check_first_round(ctx: Context, records: List[Record], counts: Dict[str, float]) -> None:
    """The first round's cache counts follow from its sequence, for any seed."""
    first = [r.request for r in records if r.round == 0]
    lookups = sum(len(request.names) for request in first)
    hits = lookups - sum(len(request.new) for request in first)
    got = (counts["cache_lookups"], counts["cache_hits"], counts["queue_coalesced"])
    ctx.checks.check(
        got == (lookups, hits, 0),
        f"{NAME}: first round looked up/hit/coalesced {got}, sequence gives {(lookups, hits, 0)}",
    )


def run(ctx: Context) -> dict:
    sequences = make_sequences(ctx.seed, base_problems())
    speed = HostSpeed()
    server, raw_setup_s = repeated_setup(lambda repeat: boot(ctx, repeat, sequences), SETUP_REPEATS, speed)
    traced: Dict[str, Any] = {}
    try:
        measured = measure(ctx, server, sequences)
        if ctx.trace:
            traced = traced_round(server, sequences, measured["rounds"])
        final = server.stats()
    finally:
        server.close()
    store = "sqlite" if any(server.work.glob("cache/*.sqlite")) else "json"
    records: List[Record] = measured["records"]
    latencies = {
        kind: [r.response.seconds for r in records if r.request.kind == kind]
        for kind in ("hit", "miss", "batch")
    }
    classes = sorted({r.request.op_type for r in records})
    layers = {
        "analyze_hit_p50_ms": 1000.0 * median(latencies["hit"]),
        "analyze_hit_p90_ms": 1000.0 * percentile(latencies["hit"], 0.9),
        "analyze_miss_p50_ms": 1000.0 * median(latencies["miss"]),
        "batch_p50_ms": 1000.0 * median(latencies["batch"]),
        "serve_requests_per_s": len(records) / sum(measured["walls"]),
        "samples.ops": len(records),
        "samples.analyze_hit": len(latencies["hit"]),
        "samples.analyze_miss": len(latencies["miss"]),
        "samples.batch": len(latencies["batch"]),
        "service.runtime.pools_created": final["runtime"]["pools_created"],
    }
    counts = measured["counts"]
    layers.update(
        {
            "engine.cache.hit_rate": counts["cache_hit_rate"],
            "engine.store.transactions": counts["store_transactions"],
            "service.queue.coalesced": counts["queue_coalesced"],
            "core.vector_sweeps": counts["vector_sweeps"],
            "service.runtime.generation_passes": counts["generation_passes"],
        }
    )
    all_records = records + [r for r, _, _ in traced.get("traced", [])]
    served = check(ctx, all_records, sequences)
    check_first_round(ctx, records, counts)
    check_counts(ctx, NAME, counts, final, EXACT_COUNTS)
    first_round = [
        served[name]
        for record in records
        if record.round == 0
        for name in record.request.new
        if name in served
    ]
    layers["core.ibus_calls"] = sum(doc["stats"]["ibus_calls"] for doc in first_round)
    layers["core.kernel.compilations"] = sum(
        doc["stats"].get("kernel_compilations", 0) for doc in first_round
    )
    if traced:
        cache = ResultCache(ctx.work.sub("replay-cache"))
        try:
            for record, tracer, _ in traced["traced"]:
                replay(record, tracer, cache)
        finally:
            cache.close()
        layers.update(
            served_layers(
                [
                    TracedRequest(tracer, root, record.request.size, len(record.request.names), {})
                    for record, tracer, root in traced["traced"]
                ],
                (
                    "core.kernel.compile",
                    "engine.digest",
                    "engine.cache.get_many",
                    "engine.cache.put_many",
                    "io.schedule_encode",
                    "service.queue.wait",
                ),
            )
        )
        layers["service.runtime.job_ms"] = traced["counts"]["job_ms"]
        traced_p50 = median(r.response.seconds for r, _, _ in traced["traced"])
        layers["trace.overhead"] = traced_p50 / median(r.response.seconds for r in records) - 1.0
    return {
        "e2e": {
            "setup_s": raw_setup_s * speed.scale(),
            "op_geomean_ms": 1000.0 * op_geomean((r.request.op_type, r.response.seconds) for r in records),
        },
        "layers": layers,
        "info": {
            "requests": len(records),
            "rounds": measured["rounds"],
            "samples": {kind: len(values) for kind, values in latencies.items()},
            "round_seconds": [round(t, 3) for t in measured["walls"]],
            "p50_ms_by_class": {
                f"{kind}.{modes}.n{size}": round(1000.0 * median(
                    r.response.seconds for r in records if r.request.op_type == (kind, modes, size)
                ), 1)
                for kind, modes, size in classes
            },
            "raw_setup_s": raw_setup_s,
            "host_scale": speed.scale(),
            "round1_counts": counts,
        },
        "env": {"server_analysis_backend": final["runtime"]["analysis_backend"], "cache_store": store},
    }
