"""Command line interface: ``repro-rta`` (or ``python -m repro.cli.main``).

Sub-commands
------------
``generate``   generate a random layer-by-layer problem and save it as JSON
``analyze``    run an analysis algorithm on a problem file and report/save the schedule
``batch``      analyse many problem files through the parallel, cached batch engine
``search``     design-space search (sensitivity / minimal horizon) with batched probes
``serve``      boot the persistent analysis service (warm pool + HTTP JSON API)
``cache``      inspect and prune the persistent result-cache store
``compare``    run both algorithms on a problem file and compare their schedules
``figure3``    reproduce one or all panels of Figure 3 of the paper
``headline``   reproduce the headline speedup table of Section V
``scaling``    reproduce the >8000-task scaling claim of Section VI
``info``       list available algorithms and arbitration policies
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import ExitStack
from typing import List, Optional

from .. import __version__, obs
from ..analysis import (
    SearchDriver,
    SearchProgressEvent,
    memory_sensitivity,
    minimal_horizon,
    wcet_sensitivity,
)
from ..arbiter import available_arbiters, create_arbiter
from ..bench import (
    PANELS,
    format_headline_table,
    format_panel_report,
    format_scaling_report,
    run_headline_table,
    run_panel,
    run_scaling_study,
)
from ..core import analyze, available_algorithms, compare_schedules
from ..core.kernel import compilation_count
from ..engine import BatchAnalyzer, ProgressEvent
from ..errors import BatchExecutionError, ReproError
from ..generators import fixed_ls_workload, fixed_nl_workload
from ..io import (
    load_problem,
    save_batch_results,
    save_problem,
    save_schedule,
    write_batch_csv,
    write_schedule_csv,
)
from ..service import AnalysisServer, EngineRuntime
from ..viz import analysis_report, format_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-rta",
        description=(
            "Memory interference analysis for hard real-time many-core systems "
            "(DATE 2020 reproduction)"
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a random problem (JSON)")
    generate.add_argument("--mode", choices=["LS", "NL"], default="LS", help="fixed layer size or fixed layer count")
    generate.add_argument("--parameter", type=int, default=16, help="layer size (LS) or layer count (NL)")
    generate.add_argument("--tasks", type=int, default=128, help="number of tasks")
    generate.add_argument("--cores", type=int, default=16, help="number of cores")
    generate.add_argument("--banks", type=int, default=1, help="number of memory banks")
    generate.add_argument("--seed", type=int, default=2020)
    generate.add_argument("--arbiter", default="round-robin", choices=available_arbiters())
    generate.add_argument("--output", required=True, help="problem JSON file to write")

    analyze_cmd = subparsers.add_parser("analyze", help="analyse a problem file")
    analyze_cmd.add_argument("problem", help="problem JSON file")
    analyze_cmd.add_argument("--algorithm", default="incremental", choices=available_algorithms())
    analyze_cmd.add_argument("--output", help="write the schedule as JSON to this path")
    analyze_cmd.add_argument("--csv", help="write the schedule as CSV to this path")
    analyze_cmd.add_argument("--no-gantt", action="store_true", help="omit the ASCII Gantt chart")

    batch = subparsers.add_parser(
        "batch",
        help="analyse many problem files in parallel with result caching",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  # local: one worker per CPU, persistent cache, JSON + CSV reports\n"
            "  repro-rta batch p*.json --workers 8 --cache-dir .repro-cache \\\n"
            "            --output batch.json --csv batch.csv\n"
            "\n"
            "Results are bit-identical to the serial path regardless of worker\n"
            "count; a warm cache serves repeats without analysis.\n"
            "Exit codes: 0 all schedulable, 1 some job failed, 2 some problem\n"
            "is unschedulable.  See docs/cookbook.md."
        ),
    )
    batch.add_argument("problems", nargs="+", help="problem JSON files")
    batch.add_argument("--algorithm", default="incremental", choices=available_algorithms())
    batch.add_argument(
        "--workers", type=int, default=None, help="worker processes (default: one per CPU)"
    )
    batch.add_argument(
        "--cache-dir", help="persistent result-cache directory (default: in-memory only)"
    )
    batch.add_argument("--chunksize", type=int, default=None, help="jobs per worker chunk")
    batch.add_argument("--output", help="write all schedules as one JSON batch document")
    batch.add_argument("--csv", help="write a one-row-per-problem CSV summary")
    batch.add_argument("--quiet", action="store_true", help="suppress per-chunk progress")
    batch.add_argument(
        "--trace-out",
        metavar="TRACE.json",
        help="trace the run and write a Chrome trace-event JSON "
        "(open in Perfetto / chrome://tracing; spans cover CLI, engine "
        "and workers)",
    )

    search = subparsers.add_parser(
        "search",
        help="design-space search: sensitivity or minimal horizon with batched probes",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  # largest memory-demand scaling that still meets the deadline\n"
            "  repro-rta search p1.json --kind memory --horizon 30000 --workers 8\n"
            "  # WCET headroom; smallest feasible horizon\n"
            "  repro-rta search p1.json --kind wcet --horizon 30000\n"
            "  repro-rta search p1.json --kind horizon\n"
            "\n"
            "The probe trace (and therefore the verdict) is bit-identical to the\n"
            "serial search for every worker count and speculation depth.\n"
            "Exit codes: 0 ok, 1 error, 2 baseline already infeasible.\n"
            "See docs/cookbook.md for recipes."
        ),
    )
    search.add_argument("problem", help="problem JSON file")
    search.add_argument(
        "--kind",
        choices=["memory", "wcet", "horizon"],
        default="memory",
        help="memory/wcet sensitivity bracketing, or the minimal feasible horizon",
    )
    search.add_argument("--algorithm", default="incremental", choices=available_algorithms())
    search.add_argument("--max-factor", type=float, default=16.0, help="bracketing ceiling")
    search.add_argument("--tolerance", type=float, default=0.05, help="bisection tolerance")
    search.add_argument(
        "--horizon", type=int, help="override the problem's horizon (global deadline)"
    )
    search.add_argument(
        "--workers", type=int, default=None, help="worker processes (default: one per CPU)"
    )
    search.add_argument(
        "--serial", action="store_true", help="legacy one-probe-at-a-time mode (no cache)"
    )
    search.add_argument(
        "--speculation",
        type=int,
        default=None,
        help="bisection levels probed speculatively per generation "
        "(default: adaptive from the worker count)",
    )
    search.add_argument(
        "--cache-dir", help="persistent result-cache directory (default: in-memory only)"
    )
    search.add_argument("--output", help="write the search result as JSON")
    search.add_argument("--quiet", action="store_true", help="suppress per-generation progress")
    search.add_argument(
        "--trace-out",
        metavar="TRACE.json",
        help="trace the search and write a Chrome trace-event JSON",
    )

    serve = subparsers.add_parser(
        "serve",
        help="boot the persistent analysis service (warm pool + HTTP JSON API)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  # one server: warm pool, persistent cache, JSON API on :8517\n"
            "  repro-rta serve --port 8517 --workers 8 --cache-dir ~/.cache/repro\n"
            "  # long-running host for ServiceClient callers on the network\n"
            "  repro-rta serve --host 0.0.0.0 --port 8517\n"
            "\n"
            "Endpoints: POST /analyze /batch /search, GET /stats /metrics\n"
            "(Prometheus text format) /healthz.  `--port 0` binds an ephemeral\n"
            "port and prints it as `serving on http://host:port` (machine-\n"
            "readable, used by the smoke scripts).  See docs/deployment.md."
        ),
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8517, help="TCP port (0 picks an ephemeral port)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: one per CPU; 1 analyses in the server process)",
    )
    serve.add_argument(
        "--cache-dir", help="persistent result-cache directory (default: in-memory only)"
    )
    serve.add_argument("--algorithm", default="incremental", choices=available_algorithms())
    serve.add_argument(
        "--max-pending", type=int, default=1024, help="job-queue backpressure bound"
    )
    serve.add_argument("--verbose", action="store_true", help="log every HTTP request")
    serve.add_argument(
        "--trace-dir",
        metavar="DIR",
        help="trace every request and persist JSONL request/span logs "
        "(requests-<port>.jsonl, spans-<port>.jsonl) under this directory",
    )

    cache = subparsers.add_parser(
        "cache",
        help="inspect and prune the persistent result-cache store",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  repro-rta cache stats ~/.cache/repro\n"
            "  repro-rta cache prune ~/.cache/repro --max-bytes 268435456\n"
            "\n"
            "Paths accept the same forms as --cache-dir everywhere: a\n"
            "directory (the store is <dir>/cache.sqlite), a .sqlite/.db\n"
            "file, or a sqlite:// URL.  The store is always SQLite.  See\n"
            "docs/architecture.md (Cache store)."
        ),
    )
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_commands.add_parser(
        "stats", help="report entries, bytes and hit telemetry of a cache store"
    )
    cache_stats.add_argument("path", help="cache directory, database file or sqlite:// URL")
    cache_prune = cache_commands.add_parser(
        "prune", help="evict least-recently-used entries down to the given budgets"
    )
    cache_prune.add_argument("path", help="cache directory, database file or sqlite:// URL")
    cache_prune.add_argument("--max-entries", type=int, help="keep at most this many entries")
    cache_prune.add_argument("--max-bytes", type=int, help="keep at most this many payload bytes")

    compare = subparsers.add_parser("compare", help="run both algorithms and compare")
    compare.add_argument("problem", help="problem JSON file")

    figure3 = subparsers.add_parser("figure3", help="reproduce Figure 3 panels")
    figure3.add_argument("--panel", choices=sorted(PANELS), help="run a single panel (default: all)")
    figure3.add_argument("--profile", choices=["quick", "full"], default="quick")
    figure3.add_argument("--timeout", type=float, default=60.0, help="per-point timeout in seconds")
    figure3.add_argument("--seed", type=int, default=2020)

    headline = subparsers.add_parser("headline", help="reproduce the Section V headline table")
    headline.add_argument("--seed", type=int, default=2020)

    scaling = subparsers.add_parser("scaling", help="reproduce the >8000-task scaling claim")
    scaling.add_argument("--target", type=int, default=8192, help="largest task count to analyse")
    scaling.add_argument("--seed", type=int, default=2020)

    subparsers.add_parser("info", help="list algorithms and arbiters")
    return parser


def _command_generate(args: argparse.Namespace) -> int:
    if args.mode == "LS":
        workload = fixed_ls_workload(
            args.tasks, args.parameter, core_count=args.cores, seed=args.seed, bank_count=args.banks
        )
    else:
        workload = fixed_nl_workload(
            args.tasks, args.parameter, core_count=args.cores, seed=args.seed, bank_count=args.banks
        )
    problem = workload.to_problem()
    problem = problem.with_arbiter(create_arbiter(args.arbiter, problem.platform))
    path = save_problem(problem, args.output)
    print(f"wrote {problem.task_count}-task problem {problem.name!r} to {path}")
    return 0


def _command_analyze(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    schedule = analyze(problem, args.algorithm)
    print(analysis_report(problem, schedule, include_gantt=not args.no_gantt))
    if args.output:
        save_schedule(schedule, args.output)
        print(f"\nschedule written to {args.output}")
    if args.csv:
        write_schedule_csv(schedule, args.csv)
        print(f"schedule CSV written to {args.csv}")
    return 0 if schedule.schedulable else 2


def _command_batch(args: argparse.Namespace) -> int:
    problems = [load_problem(path) for path in args.problems]
    started = time.perf_counter()

    def on_progress(event: ProgressEvent) -> None:
        # same ETA the search progress shows: average time per finished job
        # extrapolated over the remainder (cache hits make it conservative)
        elapsed = time.perf_counter() - started
        if 0 < event.done < event.total:
            eta = (elapsed / event.done) * (event.total - event.done)
            eta_text = f", eta ~{eta:.1f}s"
        else:
            eta_text = ""
        print(
            f"\r[{event.done}/{event.total}] {event.job_name} "
            f"{elapsed:.1f}s elapsed{eta_text}   ",
            end="",
            file=sys.stderr,
            flush=True,
        )

    analyzer = BatchAnalyzer(
        args.algorithm,
        max_workers=args.workers,
        cache=args.cache_dir,
        chunksize=args.chunksize,
    )
    failures = {}
    report = None
    results_cached = False
    tracer: Optional[obs.Tracer] = None
    trace_scope = ExitStack()
    if args.trace_out:
        tracer = obs.Tracer(service="cli")
        trace_scope.enter_context(tracer.activate())
        trace_scope.enter_context(
            obs.span("cli.batch", problems=len(problems), algorithm=args.algorithm)
        )
    try:
        report = analyzer.run(problems, progress=None if args.quiet else on_progress)
        schedules = report.schedules
    except BatchExecutionError as exc:
        # completed schedules are preserved — report what we have
        schedules = [schedule for schedule in exc.results if schedule is not None]
        failures = exc.failures
        results_cached = exc.results_cached
    finally:
        trace_scope.close()
    if tracer is not None:
        obs.write_chrome_trace(tracer.spans, args.trace_out)
        print(f"trace written to {args.trace_out} ({len(tracer.spans)} spans)")
    if not args.quiet:
        print(file=sys.stderr)
    rows = [
        [
            schedule.problem_name,
            str(len(schedule)),
            str(schedule.makespan),
            "yes" if schedule.schedulable else "NO",
            f"{schedule.stats.wall_time_seconds:.3f}",
        ]
        for schedule in schedules
    ]
    print(format_table(["problem", "tasks", "makespan", "schedulable", "seconds"], rows))
    stats = analyzer.cache.stats
    if report is not None:
        computed = (
            f"{report.computed} analysed on {report.workers} worker(s)"
            if report.computed
            else "0 analysed"
        )
        print(
            f"\n{report.total} problem(s) over {report.structures} structure(s): "
            f"{computed}, {report.cached} served from cache "
            f"(hits={stats.hits}, misses={stats.misses})"
        )
    else:
        retry_hint = (
            " (cached for retry)"
            if results_cached and analyzer.cache.path is not None
            else ""
        )
        print(
            f"\n{len(failures)} of {len(problems)} problem(s) FAILED; "
            f"{len(schedules)} completed{retry_hint}:"
        )
        for index, message in sorted(failures.items()):
            print(f"  [{index}] {message}")
    if args.output:
        save_batch_results(schedules, args.output)
        print(f"batch results written to {args.output}")
    if args.csv:
        write_batch_csv(schedules, args.csv)
        print(f"batch CSV written to {args.csv}")
    if failures:
        return 1
    return 0 if all(schedule.schedulable for schedule in schedules) else 2


def _command_search(args: argparse.Namespace) -> int:
    compilations_before = compilation_count()
    problem = load_problem(args.problem)
    if args.horizon is not None:
        problem = problem.with_horizon(args.horizon)
    if args.kind in ("memory", "wcet") and problem.horizon is None:
        print(
            "error: sensitivity search needs a horizon (global deadline); "
            "set one with --horizon",
            file=sys.stderr,
        )
        return 1

    def on_progress(event: SearchProgressEvent) -> None:
        eta = event.eta_seconds()
        eta_text = f", eta ~{eta:.1f}s" if eta is not None else ""
        print(
            f"\r[gen {event.generation}] {event.total_probes} probes "
            f"({event.computed} analysed, {event.cached} cached) "
            f"{event.elapsed_seconds:.1f}s elapsed{eta_text}   ",
            end="",
            file=sys.stderr,
            flush=True,
        )

    # batched searches run on a persistent runtime: every generation reuses
    # one warm pool instead of paying pool startup per 2–3-probe round
    runtime = (
        None
        if args.serial
        else EngineRuntime(max_workers=args.workers, cache=args.cache_dir)
    )
    tracer: Optional[obs.Tracer] = None
    trace_scope = ExitStack()
    if args.trace_out:
        tracer = obs.Tracer(service="cli")
        trace_scope.enter_context(tracer.activate())
        trace_scope.enter_context(
            obs.span(
                "cli.search",
                kind=args.kind,
                problem=problem.name,
                algorithm=args.algorithm,
            )
        )
    try:
        # inside the try: a refused option still closes the runtime
        driver = SearchDriver(
            args.algorithm,
            batch=not args.serial,
            speculation=args.speculation,
            progress=None if args.quiet else on_progress,
            runtime=runtime,
        )
        if args.kind == "horizon":
            horizon = minimal_horizon(problem, algorithm=args.algorithm, driver=driver)
            document = {"kind": "horizon", "problem": problem.name, "minimal_horizon": horizon}
            exit_code = 0
        else:
            sensitivity = memory_sensitivity if args.kind == "memory" else wcet_sensitivity
            result = sensitivity(
                problem,
                algorithm=args.algorithm,
                max_factor=args.max_factor,
                tolerance=args.tolerance,
                driver=driver,
            )
            document = {"kind": args.kind, "problem": problem.name, **result.to_dict()}
            exit_code = 0 if result.breaking_factor > 0 else 2
    finally:
        trace_scope.close()
        if runtime is not None:
            runtime.close()
    if tracer is not None:
        obs.write_chrome_trace(tracer.spans, args.trace_out)
        print(f"trace written to {args.trace_out} ({len(tracer.spans)} spans)")
    if not args.quiet:
        print(file=sys.stderr)
    if args.kind == "horizon":
        print(f"minimal feasible horizon of {problem.name!r}: {document['minimal_horizon']} cycles")
    else:
        dimension = "memory demand" if args.kind == "memory" else "WCETs"
        print(
            f"largest schedulable {dimension} scaling of {problem.name!r}: "
            f"{document['breaking_factor']:.2f}x"
            + (
                f" (makespan {document['makespan_at_break']} within horizon {problem.horizon})"
                if document["makespan_at_break"] is not None
                else " (infeasible at the unscaled baseline)"
            )
        )
        print(f"probes recorded: {len(document['probes'])}")
    stats = driver.stats
    if stats is not None:
        print(
            f"probe evaluations: {driver.total_computed} analysed, "
            f"{driver.total_cached} served from cache "
            f"(hits={stats.hits}, misses={stats.misses})"
        )
    # delta re-analysis observability: a whole search should compile its base
    # problem once, however many probe variants it evaluated (per process:
    # spawn-pool workers each hold their own one-per-structure memo)
    print(
        "kernel compilations (client process): "
        f"{compilation_count() - compilations_before}"
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"search result written to {args.output}")
    return exit_code


def _command_serve(args: argparse.Namespace) -> int:
    runtime = EngineRuntime(max_workers=args.workers, cache=args.cache_dir)
    server = AnalysisServer(
        runtime,
        host=args.host,
        port=args.port,
        algorithm=args.algorithm,
        max_pending=args.max_pending,
        quiet=not args.verbose,
        trace_dir=args.trace_dir,
    )
    stats = runtime.stats()
    cache_text = args.cache_dir if args.cache_dir else "in-memory"
    # the URL line is machine-readable on purpose: smoke tests and scripts
    # booting `repro-rta serve --port 0` parse the bound port from it.  One
    # write call: with an unbuffered stdout, print() writes the text and the
    # newline separately, and a reader polling the file between the two
    # sees a torn line
    sys.stdout.write(f"serving on {server.url}\n")
    sys.stdout.flush()
    print(
        f"runtime: workers={stats.workers} "
        f"cache={cache_text} algorithm={args.algorithm} "
        f"analysis-backend={stats.analysis_backend}",
        file=sys.stderr,
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down", file=sys.stderr)
    finally:
        server.close()
        runtime.close()
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    from ..engine.store import open_store

    if args.cache_command == "stats":
        store = open_store(args.path)
        try:
            entries = store.entry_count()
            size = store.byte_count()
            quarantined = store.quarantine_count()
            lookups = store.stats.lookups
            hit_rate = f"{store.stats.hit_rate() * 100:.0f}%" if lookups else "-"
            rows = [
                ["location", str(store.path)],
                ["entries", str(entries)],
                ["bytes", str(size)],
                ["quarantined", str(quarantined)],
                ["hit-rate", hit_rate],
            ]
            print(format_table(["field", "value"], rows))
        finally:
            store.close()
        return 0

    # prune
    if args.max_entries is None and args.max_bytes is None:
        print("error: prune needs --max-entries and/or --max-bytes", file=sys.stderr)
        return 1
    store = open_store(args.path)
    try:
        evicted = store.prune(max_entries=args.max_entries, max_bytes=args.max_bytes)
        entries = store.entry_count()
        size = store.byte_count()
    finally:
        store.close()
    print(f"evicted {evicted} entr(ies); {entries} remain ({size} bytes)")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    incremental = analyze(problem, "incremental")
    baseline = analyze(problem, "fixedpoint")
    comparison = compare_schedules(incremental, baseline)
    print(comparison.summary())
    return 0


def _command_figure3(args: argparse.Namespace) -> int:
    labels = [args.panel] if args.panel else list(PANELS)
    for label in labels:
        result = run_panel(label, profile=args.profile, timeout_seconds=args.timeout, seed=args.seed)
        print(format_panel_report(result))
        print()
    return 0


def _command_headline(args: argparse.Namespace) -> int:
    rows = run_headline_table(seed=args.seed)
    print(format_headline_table(rows))
    return 0


def _command_scaling(args: argparse.Namespace) -> int:
    sizes = tuple(sorted({512, 1024, 2048, 4096, max(args.target, 512)}))
    report = run_scaling_study(sizes=sizes, target_size=args.target, seed=args.seed)
    print(format_scaling_report(report))
    return 0


def _command_info(_args: argparse.Namespace) -> int:
    print(f"repro {__version__}")
    print("algorithms : " + ", ".join(available_algorithms()))
    print("arbiters   : " + ", ".join(available_arbiters()))
    return 0


_COMMANDS = {
    "generate": _command_generate,
    "analyze": _command_analyze,
    "batch": _command_batch,
    "search": _command_search,
    "serve": _command_serve,
    "cache": _command_cache,
    "compare": _command_compare,
    "figure3": _command_figure3,
    "headline": _command_headline,
    "scaling": _command_scaling,
    "info": _command_info,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
