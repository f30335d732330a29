"""search-serve: the design-space path, sensitivity searches through the server.

The run first generates LS64/NL64 base problems at n = 400 and 1000, gives
each a horizon of 1.5x its unconstrained makespan, and makes its requests.
Set-up boots ``repro-rta serve --workers 2`` and warms it up with one small
analysis and two small searches, which also build its worker pool.  One
round is eight ``POST /search`` calls, each on a problem not seen before (a
variant of a base), alternating ``kind`` memory/wcet every call and
``algorithm`` incremental/fixedpoint every second call; six are n=400 and
two (both incremental) n=1000, since a fixed-point search at n=1000 takes
seconds on its own.  Every search asks for the same bisection lookahead
(``SPECULATION``), so it runs the same probes on every run.  Each search
decodes its problem once and then runs many overlay probes and generation
passes through the runtime pool: the kernel, the vector core, the runtime
and the search driver do the work, and decode, validation and transport do
little.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Tuple

from repro import obs
from repro.analysis.search import SearchDriver, adaptive_speculation
from repro.analysis.sensitivity import memory_sensitivity, wcet_sensitivity
from repro.core import analyze
from repro.engine.cache import ResultCache
from repro.generators import fixed_ls_workload, fixed_nl_workload
from repro.io.json_io import problem_from_dict, problem_to_dict

from common import (
    Context,
    HostSpeed,
    Response,
    Server,
    TracedRequest,
    base_seed,
    check_counts,
    check_golden,
    derive_seed,
    instrumented,
    median,
    op_geomean,
    repeated_setup,
    round_seconds,
    served_layers,
    served_seconds,
    stats_delta,
    traced_request,
    transport_floor,
    type_medians,
    variant_of,
)

NAME = "search-serve"
#: one round: (base, kind, algorithm)
ROUND = (
    ("LS400", "memory", "incremental"),
    ("NL1000", "wcet", "incremental"),
    ("NL400", "memory", "fixedpoint"),
    ("LS400", "wcet", "fixedpoint"),
    ("LS1000", "memory", "incremental"),
    ("NL400", "wcet", "incremental"),
    ("LS400", "memory", "fixedpoint"),
    ("NL400", "wcet", "fixedpoint"),
)
HORIZON_FACTOR = 1.5
#: two searches of each kind per run: a search's time varies by more than
#: 10% from one call to the next on a shared host
MIN_ROUNDS = 2
MAX_ROUNDS = 4
SETUP_REPEATS = 9
WORKERS = 2
#: bisection lookahead of every search: what the server's adaptive rule
#: picks for its pool width once probes cost more than a few milliseconds.
#: Left to the rule, the first searches after the cheap warm-up would look
#: further ahead, by an amount that depends on timing, and run more probes.
SPECULATION = adaptive_speculation(WORKERS)
#: first-round ``GET /stats`` counts that repeat exactly for a seed
EXACT_COUNTS = (
    "cache_hits", "cache_lookups", "store_transactions", "queue_coalesced",
    "kernel_compilations", "vector_sweeps", "generation_passes", "jobs",
)
WARMUP_TASKS = 32


class Search(NamedTuple):
    index: int  # position in ROUND
    base: str
    problem: Any
    kind: str
    algorithm: str
    body: bytes


class Record(NamedTuple):
    round: int
    search: Search
    response: Response


def base_problems() -> Tuple[Dict[str, Any], Dict[str, int]]:
    """Base problems and their horizons (1.5x the unconstrained makespan)."""
    bases, horizons = {}, {}
    for size in (400, 1000):
        for mode, generate in (("LS", fixed_ls_workload), ("NL", fixed_nl_workload)):
            key = f"{mode}{size}"
            bases[key] = generate(size, 64, seed=base_seed(NAME, mode, size)).to_problem()
            horizons[key] = int(HORIZON_FACTOR * analyze(bases[key]).makespan)
    return bases, horizons


def make_rounds(seed: int, bases: Dict[str, Any], horizons: Dict[str, int]) -> List[List[Search]]:
    """Every round's searches, each on a new variant of its base."""
    variant = derive_seed(seed, NAME, "variants") % 100_000
    rounds = []
    for _ in range(MAX_ROUNDS + 1):
        searches = []
        for index, (base, kind, algorithm) in enumerate(ROUND):
            problem = variant_of(bases[base], variant, horizons[base])
            variant += 1
            body = json.dumps(
                {
                    "problem": problem_to_dict(problem),
                    "kind": kind,
                    "algorithm": algorithm,
                    "speculation": SPECULATION,
                }
            )
            searches.append(Search(index, base, problem, kind, algorithm, body.encode("utf-8")))
        rounds.append(searches)
    return rounds


def warmup_requests() -> List[Tuple[str, bytes]]:
    """One small analysis and one small search per algorithm (lazy set-up)."""
    problem = fixed_ls_workload(WARMUP_TASKS, 4, seed=base_seed(NAME, "warmup")).to_problem()
    document = problem_to_dict(problem)
    requests = [("/analyze", {"problem": document})]
    document = {**document, "horizon": int(HORIZON_FACTOR * analyze(problem).makespan)}
    for kind, algorithm in (("memory", "incremental"), ("wcet", "fixedpoint")):
        requests.append(("/search", {"problem": document, "kind": kind, "algorithm": algorithm}))
    return [(path, json.dumps(body).encode("utf-8")) for path, body in requests]


def boot(ctx: Context, repeat: int, warmup: List[Tuple[str, bytes]]) -> Server:
    """Start a server, build its pool and warm it up."""
    server = Server(ctx.root, ctx.work.sub(f"server-{repeat}"), workers=WORKERS)
    try:
        client = server.client()
        try:
            for path, body in warmup:
                response = client.request("POST", path, body)
                if response.status != 200:
                    raise RuntimeError(f"warm-up {path} failed with HTTP {response.status}")
        finally:
            client.close()
    except BaseException:
        server.close()
        raise
    return server


def measure(ctx: Context, server: Server, rounds: List[List[Search]], speed: HostSpeed) -> Dict[str, Any]:
    """Whole rounds: at least ``MIN_ROUNDS``, and until the seconds are up.

    The host's speed is sampled before each search and after the last, when
    no request is in flight.
    """
    records: List[Record] = []
    client = server.client()
    before = server.stats()
    counts: Dict[str, float] = {}
    started = time.perf_counter()
    try:
        for number, searches in enumerate(rounds[:MAX_ROUNDS]):
            if number >= MIN_ROUNDS and time.perf_counter() - started >= ctx.seconds:
                break
            for search in searches:
                speed.sample()
                records.append(Record(number, search, client.request("POST", "/search", search.body)))
            if number == 0:
                counts = stats_delta(before, server.stats())
    finally:
        client.close()
    speed.sample()
    return {"records": records, "counts": counts}


def traced_round(server: Server, searches: List[Search]) -> Dict[str, Any]:
    """One round, each search under its own tracer."""
    traced = []
    client = server.client()
    before = server.stats()
    try:
        for search in searches:
            response, tracer, root = traced_request(
                lambda tp: client.request("POST", "/search", search.body, tp), "/search"
            )
            traced.append((Record(MAX_ROUNDS, search, response), tracer, root))
    finally:
        client.close()
    return {"traced": traced, "counts": stats_delta(before, server.stats())}


def replay(record: Record, tracer: obs.Tracer, directory: Path) -> Tuple[float, bool]:
    """Replay a search's decode and, in-process, its cache writes.

    The server's search driver stores each generation's fresh probe
    schedules with one ``ResultCache.put_many`` (``BatchAnalyzer``) under
    their job keys and split digests, inside a span that also covers the
    analysis.  The replay runs the same search through a batch driver of
    the same speculation over a fresh SQLite cache, serially in-process,
    and times those ``put_many`` calls.  Returns their seconds, and whether
    the replay's generations had the sizes of the server's.
    """
    search = record.search
    with tracer.activate(), obs.span("bench.replay"), instrumented():
        with obs.span("request.decode"):
            problem_from_dict(json.loads(search.body)["problem"])
    sensitivity = memory_sensitivity if search.kind == "memory" else wcet_sensitivity
    replay_tracer = obs.Tracer(service="perfbench")
    cache = ResultCache(directory)
    try:
        driver = SearchDriver(search.algorithm, max_workers=1, cache=cache, speculation=SPECULATION)
        with replay_tracer.activate(), instrumented((ResultCache, "put_many", "cache.put_many")):
            sensitivity(search.problem, driver=driver)
    finally:
        cache.close()

    def generations(spans: List[obs.Span]) -> List[Any]:
        return [s.attributes.get("probes") for s in spans if s.name == "search.generation"]

    seconds = sum(s.duration for s in replay_tracer.spans if s.name == "cache.put_many")
    return seconds, generations(replay_tracer.spans) == generations(tracer.spans)


def check(ctx: Context, records: List[Record]) -> None:
    """Every verdict against a serial in-process search of the same problem."""
    for record in records:
        search = record.search
        problem = search.problem
        what = f"{NAME} {problem.name} {search.kind}/{search.algorithm}"
        if record.response.status != 200:
            ctx.checks.operation(False, f"{what}: HTTP {record.response.status}")
            continue
        served = record.response.json()
        sensitivity = memory_sensitivity if search.kind == "memory" else wcet_sensitivity
        result = sensitivity(problem, driver=SearchDriver(search.algorithm, batch=False)).to_dict()
        verdict = {key: served.get(key) for key in result}
        ctx.checks.operation(verdict == result, f"{what}: served {verdict} != in-process {result}")
        if record.round == 0:
            check_golden(ctx, NAME, f"{problem.name}/{search.kind}/{search.algorithm}", result)


def run(ctx: Context) -> dict:
    bases, horizons = base_problems()
    rounds = make_rounds(ctx.seed, bases, horizons)
    speed = HostSpeed()
    warmup = warmup_requests()
    server, raw_setup_s = repeated_setup(lambda repeat: boot(ctx, repeat, warmup), SETUP_REPEATS, speed)
    traced: Dict[str, Any] = {}
    try:
        floor = transport_floor(server)
        measured = measure(ctx, server, rounds, speed)
        if ctx.trace:
            traced = traced_round(server, rounds[MAX_ROUNDS])
        final = server.stats()
    finally:
        server.close()
    records: List[Record] = measured["records"]
    scale = speed.scale()

    def nominal(record: Record) -> float:
        return served_seconds(record.response.seconds, floor, scale)

    timings = [(r.search.index, nominal(r)) for r in records]
    ok = [r for r in records if r.response.status == 200]
    probes = [len(r.response.json()["probes"]) for r in ok]
    counts = measured["counts"]
    layers = {
        "search_p50_s": median(type_medians(timings).values()),
        "search_probes_per_s": sum(probes) / sum(nominal(r) for r in ok) if ok else 0.0,
        "samples.ops": len(records),
        "analysis.search.probes": sum(probes) / len(probes) if probes else 0.0,
        "engine.cache.hit_rate": counts["cache_hit_rate"],
        "engine.store.transactions": counts["store_transactions"],
        "service.queue.coalesced": counts["queue_coalesced"],
        "core.kernel.compilations": counts["kernel_compilations"],
        "core.vector_sweeps": counts["vector_sweeps"],
        "service.runtime.generation_passes": counts["generation_passes"],
        "service.runtime.pools_created": final["runtime"]["pools_created"],
    }
    info: Dict[str, Any] = {}
    if traced:
        requests, matched = [], 0
        for index, (record, tracer, root) in enumerate(traced["traced"]):
            put_many, match = 0.0, False
            if record.response.status == 200:
                put_many, match = replay(record, tracer, ctx.work.sub(f"replay-{index}"))
            matched += match
            size = int(record.search.base[2:])
            requests.append(TracedRequest(tracer, root, size, 1, {"engine.cache.put_many": put_many}))
        layers.update(
            served_layers(
                requests,
                (
                    "core.kernel.compile",
                    "core.vector.generation",
                    "engine.cache.get_many",
                    "engine.cache.put_many",
                    "service.queue.wait",
                ),
            )
        )
        layers["analysis.search.generations"] = sum(
            1 for request in requests for s in request.tracer.spans if s.name == "search.generation"
        ) / len(requests)
        layers["service.runtime.job_ms"] = traced["counts"]["job_ms"]
        traced_s = round_seconds((r.search.index, nominal(r)) for r, _, _ in traced["traced"])
        layers["trace.overhead"] = traced_s / round_seconds(timings) - 1.0
        info["replays_matching_server_generations"] = f"{matched}/{len(requests)}"
    check(ctx, records + [r for r, _, _ in traced.get("traced", [])])
    check_counts(ctx, NAME, counts, final, EXACT_COUNTS)
    return {
        "e2e": {"setup_s": raw_setup_s * scale, "op_geomean_ms": 1000.0 * op_geomean(timings)},
        "layers": layers,
        "info": {
            "searches": len(records),
            "probes": sum(probes),
            "raw_op_geomean_ms": 1000.0 * op_geomean((r.search.index, r.response.seconds) for r in records),
            "raw_setup_s": raw_setup_s,
            "host_scale": scale,
            "transport_floor_ms": 1000.0 * floor,
            "round1_counts": counts,
            **info,
        },
        "env": {"server_analysis_backend": final["runtime"]["analysis_backend"]},
    }
