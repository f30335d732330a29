#!/usr/bin/env python3
"""Machine-readable performance snapshot of the delta re-analysis path (PR 5).

Measures, on one deterministic layer-by-layer workload:

1. **Sensitivity probe throughput** — the same ``bracket_search`` factor
   search driven two ways:

   * *cold*: the pre-kernel probe builder — every probed factor copies the
     whole task graph, rebuilds an ``AnalysisProblem`` and re-derives all
     static structure inside the analyzer;
   * *kernel*: the production path — the base problem is compiled into a
     :class:`repro.core.CompiledProblem` once and every probe is a parameter
     overlay against it.

   Both run strictly serially (worker pools would only add noise at these
   sizes) and produce bit-identical probe traces — the snapshot asserts that.

2. **Fixed-point sweep cost** — wall time, iteration and IBUS-call counts of
   one ``fixedpoint`` analysis (whose inner loop is now a sort-based interval
   sweep instead of the all-pairs scan), as a per-PR trajectory data point.

3. **Tracing overhead** — the same serial analysis timed with ``repro.obs``
   tracing disabled and enabled (interleaved best-of so clock drift hits both
   modes equally), plus a microbenchmark of the disabled-mode ``obs.span()``
   fast path.  The disabled path must be free: its estimated overhead
   (span call sites x per-call no-op cost / run time) is asserted < 5% by
   ``tests/bench/test_tracing_overhead.py``.

4. **Structural probe throughput** (PR 7) — one grid of single-edit
   structural deltas (remaps + extra precedence edges) analysed three ways:

   * *cold*: every probe materialises a fresh ``AnalysisProblem`` and the
     analyzer recompiles it from scratch;
   * *patch*: every probe is a :class:`repro.core.PatchedProblem` sharing
     the parent kernel's untouched tables, analysed cold;
   * *warm*: the same patched probes carrying a warm-start bundle from the
     parent's schedule, so the analyzer resumes instead of starting over.

   All three produce bit-identical verdicts (asserted); the snapshot
   records the per-mode throughput and the warm-resume count.

5. **Vectorized backend speedups** (PR 9) — the same fixed-point analysis
   run through the pure-Python oracle and the NumPy vector backend (asserted
   bit-identical before any speedup is reported), plus one overlay
   *generation* evaluated as a serial python loop vs one batched
   ``analyze_generation`` 2-D pass.  Without NumPy the vector fields stay
   null and the snapshot still runs end to end.

6. **Persistent cache store throughput** — the SQLite store filled
   with >=10k entries, then hammered with warm batched lookups.
   Bit-identical schedule readback is asserted before any throughput is
   reported.  The headline times ``fetch_many`` (the storage primitive:
   key → validated record); the fully-validated ``get_many`` time rides
   along, and the ``transactions`` counter confirms one round trip per
   batch.  A second store is overfilled against a ``max_bytes`` budget to
   record that put-time eviction holds the occupancy bound.

Writes a JSON document (default ``BENCH_PR10.json``) so CI finally records
perf data points over time::

    PYTHONPATH=src python scripts/bench_snapshot.py --tiny --output BENCH_PR10.json

``--tiny`` shrinks the workload for CI runners; the numbers are then only
good for trajectory, not for absolute claims.  Exit code 0 unless the two
search paths diverge (which would be a correctness bug, not a perf one).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import AnalysisProblem, obs  # noqa: E402
from repro.analysis import (  # noqa: E402
    SearchDriver,
    bracket_search,
    edge_grid,
    memory_sensitivity,
    remap_grid,
)
from repro.analysis.sensitivity import scale_memory_demand  # noqa: E402
from repro.core import (  # noqa: E402
    PatchedProblem,
    analyze_fixedpoint,
    analyze_generation,
    analyze_incremental,
    compilation_count,
    compile_problem,
    generation_pass_count,
    numpy_available,
    patch_problem,
)
from repro.engine.store import SqliteStore  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.generators import fixed_ls_workload  # noqa: E402


def _best_of(repeats, fn):
    """(best wall-clock seconds, last result) over ``repeats`` runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def measure_sensitivity(problem, *, max_factor, tolerance, repeats):
    """Cold (full-rebuild) vs kernel (overlay) serial probe throughput."""

    def legacy_rebuild(factor):
        return AnalysisProblem(
            graph=scale_memory_demand(problem.graph, factor),
            mapping=problem.mapping,
            platform=problem.platform,
            arbiter=problem.arbiter,
            horizon=problem.horizon,
            name=f"{problem.name}-mem-x{factor:.2f}",
            validate=False,
        )

    def run_cold():
        return bracket_search(
            legacy_rebuild,
            driver=SearchDriver(batch=False),
            max_factor=max_factor,
            tolerance=tolerance,
        )

    def run_kernel():
        return memory_sensitivity(
            problem, max_factor=max_factor, tolerance=tolerance
        )

    cold_seconds, cold_result = _best_of(repeats, run_cold)
    compilations_before = compilation_count()
    kernel_seconds, kernel_result = _best_of(repeats, run_kernel)
    compilations = compilation_count() - compilations_before
    if cold_result != kernel_result:
        raise SystemExit(
            "BUG: kernel-path sensitivity result diverged from the legacy path"
        )
    probes = len(kernel_result.probes)
    return {
        "probes": probes,
        "breaking_factor": kernel_result.breaking_factor,
        "cold_seconds": cold_seconds,
        "kernel_seconds": kernel_seconds,
        "cold_probes_per_second": probes / cold_seconds if cold_seconds else None,
        "kernel_probes_per_second": probes / kernel_seconds if kernel_seconds else None,
        "speedup": (cold_seconds / kernel_seconds) if kernel_seconds else None,
        "improved": kernel_seconds < cold_seconds,
        "kernel_compilations_per_search": compilations / repeats,
    }


def measure_fixedpoint(problem, *, repeats):
    """Python-oracle vs vector-backend cost of one fixed-point analysis.

    Asserts bit-identity (entries, verdict and every iteration counter)
    before reporting any speedup — a diverging fast path would be a
    correctness bug, not a perf result.  Without NumPy only the python
    numbers are reported.
    """
    seconds, schedule = _best_of(
        repeats, lambda: analyze_fixedpoint(problem, backend="python")
    )
    inner = schedule.stats.inner_iterations
    document = {
        "seconds": seconds,
        "inner_iterations": inner,
        "outer_iterations": schedule.stats.outer_iterations,
        "ibus_calls": schedule.stats.ibus_calls,
        "seconds_per_inner_iteration": seconds / inner if inner else None,
        "makespan": schedule.makespan,
        "vector_available": numpy_available(),
        "vector_seconds": None,
        "vector_seconds_per_inner_iteration": None,
        "vector_speedup": None,
    }
    if not numpy_available():
        return document
    vector_seconds, vector_schedule = _best_of(
        repeats, lambda: analyze_fixedpoint(problem, backend="vector")
    )
    if (
        vector_schedule.to_dict()["entries"] != schedule.to_dict()["entries"]
        or vector_schedule.schedulable != schedule.schedulable
        or vector_schedule.stats.inner_iterations != inner
        or vector_schedule.stats.outer_iterations != schedule.stats.outer_iterations
        or vector_schedule.stats.ibus_calls != schedule.stats.ibus_calls
    ):
        raise SystemExit(
            "BUG: vector fixed-point schedule diverged from the python oracle"
        )
    document["vector_seconds"] = vector_seconds
    document["vector_seconds_per_inner_iteration"] = (
        vector_seconds / inner if inner else None
    )
    document["vector_speedup"] = (
        seconds / vector_seconds if vector_seconds else None
    )
    return document


def measure_generation(problem, *, probes, repeats):
    """Serial python loop vs one batched generation pass over wcet probes."""
    kernel = compile_problem(problem)
    factors = [0.5 + 1.5 * i / max(probes - 1, 1) for i in range(probes)]
    generation = [
        kernel.with_overlay(kernel.scaled_wcet_overlay(factor)) for factor in factors
    ]

    def run_serial():
        return [analyze_fixedpoint(p, backend="python") for p in generation]

    serial_seconds, serial_schedules = _best_of(repeats, run_serial)
    document = {
        "probes": probes,
        "serial_seconds": serial_seconds,
        "serial_probes_per_second": (
            probes / serial_seconds if serial_seconds else None
        ),
        "vector_available": numpy_available(),
        "batched_seconds": None,
        "batched_probes_per_second": None,
        "speedup": None,
        "generation_passes": None,
    }
    if not numpy_available():
        return document
    passes_before = generation_pass_count()
    batched_seconds, batched_schedules = _best_of(
        repeats, lambda: analyze_generation(generation, "fixedpoint", backend="vector")
    )
    passes = generation_pass_count() - passes_before
    for serial, batched in zip(serial_schedules, batched_schedules):
        if (
            serial.to_dict()["entries"] != batched.to_dict()["entries"]
            or serial.schedulable != batched.schedulable
            or serial.stats.inner_iterations != batched.stats.inner_iterations
            or serial.stats.ibus_calls != batched.stats.ibus_calls
        ):
            raise SystemExit(
                "BUG: batched generation schedule diverged from the serial oracle"
            )
    document["batched_seconds"] = batched_seconds
    document["batched_probes_per_second"] = (
        probes / batched_seconds if batched_seconds else None
    )
    document["speedup"] = serial_seconds / batched_seconds if batched_seconds else None
    document["generation_passes_per_run"] = passes / repeats
    document["generation_passes"] = passes
    return document


def measure_tracing_overhead(problem, *, repeats, noop_calls=100_000):
    """Serial analysis wall time with tracing disabled vs enabled.

    The two modes are interleaved inside one loop so thermal/clock drift
    penalises both equally, then the best-of time per mode is kept.  On top
    of the end-to-end comparison, the disabled-mode ``obs.span()`` fast path
    is microbenchmarked so the disabled overhead can be bounded analytically:
    the instrumentation touches ``spans_per_run`` call sites per analysis, so
    its cost is at most ``spans_per_run * noop cost`` of the run time.
    """
    disabled_best = float("inf")
    enabled_best = float("inf")
    spans_per_run = 0
    disabled_makespan = enabled_makespan = None
    for _ in range(repeats):
        started = time.perf_counter()
        disabled_makespan = analyze_incremental(problem).makespan
        disabled_best = min(disabled_best, time.perf_counter() - started)

        tracer = obs.Tracer(service="bench")
        with tracer.activate():
            started = time.perf_counter()
            enabled_makespan = analyze_incremental(problem).makespan
            enabled_best = min(enabled_best, time.perf_counter() - started)
        spans_per_run = len(tracer.spans)
    if disabled_makespan != enabled_makespan:
        raise SystemExit("BUG: tracing perturbed the analysis verdict")

    started = time.perf_counter()
    for _ in range(noop_calls):
        with obs.span("bench.noop"):
            pass
    noop_span_seconds_per_call = (time.perf_counter() - started) / noop_calls

    estimated_disabled_overhead = (
        spans_per_run * noop_span_seconds_per_call / disabled_best
        if disabled_best
        else None
    )
    return {
        "disabled_seconds": disabled_best,
        "enabled_seconds": enabled_best,
        "enabled_overhead_ratio": (
            enabled_best / disabled_best - 1.0 if disabled_best else None
        ),
        "spans_per_run": spans_per_run,
        "noop_span_seconds_per_call": noop_span_seconds_per_call,
        "estimated_disabled_overhead": estimated_disabled_overhead,
        "makespan": disabled_makespan,
    }


def measure_structural(problem, *, repeats, probe_limit):
    """Structural grid throughput: cold rebuild vs kernel patch vs warm resume."""
    kernel = compile_problem(problem)
    parent_schedule = analyze_incremental(problem)
    grid = []
    for delta in remap_grid(kernel) + edge_grid(kernel, limit=probe_limit):
        try:
            patch_problem(kernel, delta)
        except ReproError:
            continue  # e.g. a remap that would create an ordering cycle
        grid.append(delta)
        if len(grid) >= probe_limit:
            break

    def run_cold():
        return [
            analyze_incremental(PatchedProblem(kernel, delta).materialize())
            for delta in grid
        ]

    def run_patch():
        return [
            analyze_incremental(PatchedProblem(kernel, delta)) for delta in grid
        ]

    def run_warm():
        return [
            analyze_incremental(
                PatchedProblem(kernel, delta, parent_schedule=parent_schedule)
            )
            for delta in grid
        ]

    cold_seconds, cold_schedules = _best_of(repeats, run_cold)
    patch_seconds, patch_schedules = _best_of(repeats, run_patch)
    warm_seconds, warm_schedules = _best_of(repeats, run_warm)
    for cold, patch, warm in zip(cold_schedules, patch_schedules, warm_schedules):
        if not (
            cold.to_dict()["entries"]
            == patch.to_dict()["entries"]
            == warm.to_dict()["entries"]
        ):
            raise SystemExit(
                "BUG: structural probe verdicts diverged across cold/patch/warm"
            )
    probes = len(grid)
    warm_hits = sum(s.stats.warm_start_hits for s in warm_schedules)
    return {
        "probes": probes,
        "warm_start_hits": warm_hits,
        "cold_seconds": cold_seconds,
        "patch_seconds": patch_seconds,
        "warm_seconds": warm_seconds,
        "cold_probes_per_second": probes / cold_seconds if cold_seconds else None,
        "patch_probes_per_second": probes / patch_seconds if patch_seconds else None,
        "warm_probes_per_second": probes / warm_seconds if warm_seconds else None,
        "speedup_patch_vs_cold": (
            cold_seconds / patch_seconds if patch_seconds else None
        ),
        "speedup_warm_vs_cold": (
            cold_seconds / warm_seconds if warm_seconds else None
        ),
        "improved": warm_seconds < cold_seconds,
    }


def measure_cache(problem, *, entries, batch, repeats):
    """SQLite persistent store: warm batched lookup throughput.

    The store holds ``entries`` records; the same warm batch of ``batch``
    keys is then looked up repeatedly.  Bit-identical schedule readback is
    asserted *before* any throughput is reported.  The headline times
    ``fetch_many`` — the storage primitive (key → validated record) —
    because reconstructing a ``Schedule`` from a record would only dilute
    what the store layer does; the fully-validated ``get_many`` time is
    reported alongside.  Finally a budgeted store is overfilled to record
    that put-time eviction keeps occupancy within ``max_bytes``.
    """
    repeats = max(repeats, 5)  # file-system timings are noisy; keep best-of fair
    record = analyze_incremental(problem).to_dict()
    record_size = len(json.dumps(record, separators=(",", ":")))
    keys = [f"bench-{index:08d}" for index in range(entries)]
    sample = keys[:: max(entries // batch, 1)][:batch]
    with tempfile.TemporaryDirectory() as scratch:
        store = SqliteStore(Path(scratch) / "cache.sqlite")
        started = time.perf_counter()
        for start in range(0, entries, 2048):
            store.put_many(
                [(key, record, ("bench", key)) for key in keys[start : start + 2048]]
            )
        fill_seconds = time.perf_counter() - started

        # bit-identical readback, asserted first
        canonical = json.dumps(record, sort_keys=True)
        for loaded_record, schedule in store.get_many(sample).values():
            if (
                json.dumps(loaded_record, sort_keys=True) != canonical
                or json.dumps(schedule.to_dict(), sort_keys=True) != canonical
            ):
                raise SystemExit("BUG: cache readback diverged from the stored record")

        def timed_lookup(lookup):
            transactions_before = store.stats.transactions
            seconds, loaded = _best_of(repeats, lambda: lookup(sample))
            if len(loaded) != len(sample):
                raise SystemExit("BUG: warm batched lookup missed cached keys")
            per_batch = (store.stats.transactions - transactions_before) / repeats
            return seconds, per_batch

        seconds, transactions = timed_lookup(store.fetch_many)
        validated_seconds, _ = timed_lookup(store.get_many)
        store.close()

        # put-time eviction must hold the byte budget after every batch
        evict_budget = record_size * 64
        evict_store = SqliteStore(Path(scratch) / "evict.sqlite", max_bytes=evict_budget)
        held_budget = True
        offered = min(entries, 1024)
        for start in range(0, offered, 128):
            evict_store.put_many(
                [(key, record, ("bench", key)) for key in keys[start : start + 128]]
            )
            held_budget = held_budget and evict_store.byte_count() <= evict_budget
        if not held_budget:
            raise SystemExit("BUG: put-time eviction exceeded the max_bytes budget")
        eviction = {
            "max_bytes": evict_budget,
            "entries_offered": offered,
            "entries_resident": evict_store.entry_count(),
            "bytes_resident": evict_store.byte_count(),
            "evictions": evict_store.stats.evictions,
            "held_budget": held_budget,
        }
        evict_store.close()

    return {
        "entries": entries,
        "batch": batch,
        "record_bytes": record_size,
        "fill_seconds": fill_seconds,
        "batch_seconds": seconds,
        "lookups_per_second": batch / seconds if seconds else None,
        "validated_batch_seconds": validated_seconds,
        "transactions_per_batch": transactions,
        "eviction": eviction,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="CI-sized workload")
    parser.add_argument("--output", default="BENCH_PR10.json", help="JSON output path")
    # one fixed seed drives every workload: the whole snapshot is
    # deterministic, so two runs on one machine are comparable numbers
    parser.add_argument("--seed", type=int, default=2020)
    args = parser.parse_args()

    if args.tiny:
        tasks, layer, cores, repeats = 96, 8, 8, 3
        fixedpoint_tasks = 64
        structural_probes = 24
        generation_probes = 8
    else:
        tasks, layer, cores, repeats = 400, 16, 16, 3
        fixedpoint_tasks = 256
        structural_probes = 64
        generation_probes = 16
    # the 3x acceptance claim is stated at >=10k resident entries, so the
    # cache panel keeps that population even under --tiny
    cache_entries, cache_batch = 10_000, 512

    workload = fixed_ls_workload(tasks, layer, core_count=cores, seed=args.seed)
    base = workload.to_problem()
    # a horizon ~1.5x the unconstrained makespan gives the bracket search a
    # real bisection (schedulable baseline, infeasible ceiling)
    makespan = analyze_incremental(base).makespan
    problem = base.with_horizon(int(makespan * 1.5))

    sensitivity = measure_sensitivity(
        problem, max_factor=16.0, tolerance=0.05, repeats=repeats
    )
    fp_problem = fixed_ls_workload(
        fixedpoint_tasks, layer, core_count=cores, seed=args.seed
    ).to_problem()
    fixedpoint = measure_fixedpoint(fp_problem, repeats=repeats)
    generation = measure_generation(
        fp_problem, probes=generation_probes, repeats=repeats
    )
    tracing = measure_tracing_overhead(fp_problem, repeats=repeats)
    structural = measure_structural(
        fp_problem, repeats=repeats, probe_limit=structural_probes
    )
    # a small record keeps the 10k-entry fill fast; lookup cost is dominated
    # by store round trips, not record size
    cache_problem = fixed_ls_workload(4, 2, core_count=4, seed=args.seed).to_problem()
    cache = measure_cache(
        cache_problem, entries=cache_entries, batch=cache_batch, repeats=repeats
    )

    document = {
        "format": "repro-bench-snapshot",
        "version": 1,
        "pr": 10,
        "analysis_backend_available": numpy_available(),
        "profile": "tiny" if args.tiny else "full",
        "workload": {
            "generator": "fixed-LS",
            "tasks": tasks,
            "layer_size": layer,
            "cores": cores,
            "seed": args.seed,
            "horizon": problem.horizon,
            "fixedpoint_tasks": fixedpoint_tasks,
        },
        "sensitivity": sensitivity,
        "fixedpoint": fixedpoint,
        "generation": generation,
        "tracing": tracing,
        "structural": structural,
        "cache": cache,
    }
    output = Path(args.output)
    output.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")

    print(f"wrote {output}")
    print(
        "sensitivity: {probes} probes | cold {cold:.3f}s ({cps:.1f}/s) | "
        "kernel {kern:.3f}s ({kps:.1f}/s) | speedup x{speedup:.2f}".format(
            probes=sensitivity["probes"],
            cold=sensitivity["cold_seconds"],
            cps=sensitivity["cold_probes_per_second"],
            kern=sensitivity["kernel_seconds"],
            kps=sensitivity["kernel_probes_per_second"],
            speedup=sensitivity["speedup"],
        )
    )
    print(
        "fixedpoint: python {seconds:.3f}s | {inner} inner iterations | "
        "{ibus} IBUS calls".format(
            seconds=fixedpoint["seconds"],
            inner=fixedpoint["inner_iterations"],
            ibus=fixedpoint["ibus_calls"],
        )
    )
    if fixedpoint["vector_seconds"] is not None:
        print(
            "fixedpoint: vector {seconds:.3f}s | speedup x{speedup:.2f} "
            "(bit-identical)".format(
                seconds=fixedpoint["vector_seconds"],
                speedup=fixedpoint["vector_speedup"],
            )
        )
    if generation["batched_seconds"] is not None:
        print(
            "generation: {probes} probes | serial {serial:.3f}s | one batched "
            "pass {batched:.3f}s | speedup x{speedup:.2f}".format(
                probes=generation["probes"],
                serial=generation["serial_seconds"],
                batched=generation["batched_seconds"],
                speedup=generation["speedup"],
            )
        )
    print(
        "tracing: disabled {off:.3f}s | enabled {on:.3f}s "
        "({spans} spans) | est. disabled overhead {est:.4%}".format(
            off=tracing["disabled_seconds"],
            on=tracing["enabled_seconds"],
            spans=tracing["spans_per_run"],
            est=tracing["estimated_disabled_overhead"],
        )
    )
    print(
        "structural: {probes} probes | cold {cold:.3f}s | patch {patch:.3f}s "
        "(x{sp:.2f}) | warm {warm:.3f}s (x{sw:.2f}, {hits} resumes)".format(
            probes=structural["probes"],
            cold=structural["cold_seconds"],
            patch=structural["patch_seconds"],
            sp=structural["speedup_patch_vs_cold"],
            warm=structural["warm_seconds"],
            sw=structural["speedup_warm_vs_cold"],
            hits=structural["warm_start_hits"],
        )
    )
    print(
        "cache: {entries} entries | warm batch of {batch} | {seconds:.4f}s "
        "({txn:.0f} txn, validated {validated:.4f}s) | eviction held budget: "
        "{held}".format(
            entries=cache["entries"],
            batch=cache["batch"],
            seconds=cache["batch_seconds"],
            txn=cache["transactions_per_batch"],
            validated=cache["validated_batch_seconds"],
            held=cache["eviction"]["held_budget"],
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
