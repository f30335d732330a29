#!/usr/bin/env python3
"""Serving analyses: the persistent runtime and the HTTP JSON API.

The paper's incremental analysis is cheap enough per query to sit behind a
*resident service* instead of a process-per-sweep batch run.  This example
boots the whole :mod:`repro.service` stack in one process:

1. an :class:`EngineRuntime` — one warm worker pool plus a shared result
   cache, reused by every request;
2. an :class:`AnalysisServer` — the stdlib HTTP JSON API
   (``POST /analyze``, ``POST /batch``, ``POST /search``, ``GET /stats``,
   ``GET /healthz``) backed by a FIFO job queue with digest coalescing;
3. a :class:`ServiceClient` — remote analysis that reads like local analysis.

In production you would run the server as its own process::

    repro-rta serve --port 8517 --workers 8 --cache-dir ~/.cache/repro

Run with::

    python examples/analysis_service.py
"""

from repro import analyze
from repro.generators import fixed_ls_workload
from repro.service import AnalysisServer, EngineRuntime, ServiceClient


def main() -> None:
    problems = [
        fixed_ls_workload(64, 8, core_count=8, seed=seed).to_problem() for seed in range(4)
    ]

    with EngineRuntime(max_workers=2) as runtime:
        with AnalysisServer(runtime, port=0).start() as server:
            print(f"service up at {server.url}\n")
            client = ServiceClient(server.url)

            print("health :", client.healthz())

            # one problem — the verdict matches the local library call exactly
            remote = client.analyze(problems[0])
            local = analyze(problems[0])
            print(
                f"analyze: makespan {remote.makespan} "
                f"(matches local analysis: {remote.to_dict()['entries'] == local.to_dict()['entries']})"
            )

            # a batch — submission order preserved, identical content coalesced
            schedules = client.analyze_many(problems + problems[:2])
            print(f"batch  : {[schedule.makespan for schedule in schedules]}")

            # a design-space search on the server's warm pool
            search = client.search(problems[0], kind="horizon")
            print(f"search : minimal feasible horizon {search['minimal_horizon']} cycles")

            stats = client.stats()
            runtime_stats = stats["runtime"]
            queue_stats = stats["queue"]
            print(
                "\ntelemetry: "
                f"{runtime_stats['jobs_run']} jobs on "
                f"{runtime_stats['pools_created']} pool construction(s), "
                f"latency EWMA {runtime_stats['latency_ewma_seconds']:.2g}s, "
                f"{queue_stats['coalesced']} submissions coalesced, "
                f"cache {runtime_stats['cache']}"
            )


if __name__ == "__main__":
    main()
