#!/usr/bin/env python3
"""Boot ``repro-rta serve`` on an ephemeral port and smoke-test the JSON API.

Used by CI (and runnable by hand) to prove the service stack end to end
through a *real* subprocess and real HTTP: health check, single analysis,
batch round-trip against the in-process engine, the same batch again
answered from the cache without a queue drain, a minimal-horizon search,
memory searches of two same-structure problems that differ in one WCET, a
``deltas`` batch mixing a parameter and a structural record, the 400 that
answers a retired batch form, and the telemetry endpoint.

Usage::

    python scripts/serve_smoke.py [--workers N]

Exits 0 on success, 1 on any mismatch or timeout.
"""

from __future__ import annotations

import argparse
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import analyze, analyze_many  # noqa: E402
from repro.analysis import memory_sensitivity, minimal_horizon  # noqa: E402
from repro.core import AnalysisProblem, StructureOverlay, compile_problem  # noqa: E402
from repro.errors import ServiceError  # noqa: E402
from repro.generators import fixed_ls_workload  # noqa: E402
from repro.io import problem_to_dict  # noqa: E402
from repro.service import ServiceClient  # noqa: E402


def _first_wcet_scaled(problem: AnalysisProblem, factor: int) -> AnalysisProblem:
    """Same structure as ``problem``; only the first task's WCET differs."""
    graph = problem.graph.copy()
    first = next(iter(graph))
    graph.replace_task(first.with_wcet(first.wcet * factor))
    return AnalysisProblem(
        graph=graph,
        mapping=problem.mapping,
        platform=problem.platform,
        arbiter=problem.arbiter,
        horizon=problem.horizon,
        name=f"{problem.name}-wcet0x{factor}",
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--timeout", type=float, default=60.0)
    args = parser.parse_args()

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable,
        "-m",
        "repro.cli.main",
        "serve",
        "--port",
        "0",
        "--workers",
        str(args.workers),
    ]
    print("+", " ".join(command), flush=True)
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        # the first stdout line is machine-readable: "serving on http://host:port".
        # A reader thread feeds a queue so the deadline holds even when the
        # server wedges without printing anything (readline would block forever).
        lines: "queue.Queue[str]" = queue.Queue()
        reader = threading.Thread(
            target=lambda: [lines.put(raw) for raw in process.stdout], daemon=True
        )
        reader.start()
        deadline = time.monotonic() + args.timeout
        url = None
        while time.monotonic() < deadline:
            try:
                line = lines.get(timeout=0.2).strip()
            except queue.Empty:
                if process.poll() is not None:
                    print("FAIL: server exited early", flush=True)
                    return 1
                continue
            if line.startswith("serving on "):
                url = line.removeprefix("serving on ")
                break
        if url is None:
            print("FAIL: server never announced its URL within the timeout", flush=True)
            return 1
        print(f"server up at {url}", flush=True)
        client = ServiceClient(url, timeout=args.timeout)

        health = client.healthz()
        assert health["status"] == "ok", health
        print("healthz ok", flush=True)

        problems = [
            fixed_ls_workload(24, 4, core_count=4, seed=seed).to_problem()
            for seed in range(3)
        ]
        local = analyze_many(problems, max_workers=1)
        remote_one = client.analyze(problems[0])
        assert remote_one.to_dict()["entries"] == local[0].to_dict()["entries"]
        print(f"analyze ok (makespan {remote_one.makespan})", flush=True)

        remote = client.analyze_many(problems)
        assert [r.to_dict()["entries"] for r in remote] == [
            l.to_dict()["entries"] for l in local
        ], "batch round-trip diverged from the in-process engine"
        print(f"batch ok ({len(remote)} schedules, submission order preserved)", flush=True)

        # the same batch again: every job is a cache hit, answered at
        # submission, so the queue drains no batch for it
        batches = client.stats()["queue"]["batches"]
        again = client.analyze_many(problems)
        assert [r.to_dict()["entries"] for r in again] == [
            r.to_dict()["entries"] for r in remote
        ], "a repeated batch answered differently"
        assert client.stats()["queue"]["batches"] == batches, "a warm batch was queued"
        print("warm batch ok (answered at submission, no queue drain)", flush=True)

        search = client.search(problems[0], kind="horizon")
        assert search["minimal_horizon"] == minimal_horizon(problems[0]), search
        print(f"search ok (minimal horizon {search['minimal_horizon']})", flush=True)

        # two problems with one structure and one different WCET: each served
        # search must run against its own problem, not a kernel the workers
        # compiled for the other one
        base = fixed_ls_workload(64, 8, core_count=4, seed=5).to_problem()
        base = base.with_horizon(int(1.5 * analyze(base).makespan))
        for problem in (base, _first_wcet_scaled(base, 50)):
            served = client.search(problem, kind="memory", algorithm="incremental")
            local = memory_sensitivity(problem, algorithm="incremental")
            verdict = (served["breaking_factor"], served["makespan_at_break"])
            expected = (local.breaking_factor, local.makespan_at_break)
            assert verdict == expected, (
                f"{problem.name}: served {verdict}, in-process {expected}"
            )
            print(f"search {problem.name} ok (breaking factor {verdict[0]})", flush=True)

        # one deltas batch mixing a parameter record and a structural record
        kernel = compile_problem(problems[1])
        last = kernel.names[kernel.topo_order[-1]]
        probes = [
            kernel.with_overlay(kernel.scaled_demand_overlay(1.5), name="demand-x1.5"),
            kernel.patched(StructureOverlay.remap_task(last, core=0), name="remap-last"),
        ]
        remote = client.analyze_many_deltas(probes)
        for probe, schedule in zip(probes, remote):
            expected = analyze(probe).to_dict()["entries"]
            assert schedule.to_dict()["entries"] == expected, probe.name
        print(f"deltas batch ok ({len(remote)} probes, parameter + structural)", flush=True)

        # a retired batch form answers 400 and points at the 'deltas' form
        try:
            client._request(
                "POST", "/batch", {"problem": problem_to_dict(problems[1]), "overlays": []}
            )
        except ServiceError as exc:
            assert exc.status == 400 and "'deltas'" in str(exc), exc
        else:
            raise AssertionError("an 'overlays' batch was accepted")
        print("retired 'overlays' form answers 400 naming 'deltas'", flush=True)

        metrics = client.metrics()
        assert "# TYPE repro_runtime_jobs_completed_total counter" in metrics, metrics
        assert "repro_service_info{" in metrics, metrics
        completed = [
            line
            for line in metrics.splitlines()
            if line.startswith("repro_runtime_jobs_completed_total ")
        ]
        assert completed and int(completed[0].split()[1]) >= 1, metrics
        print(f"metrics ok ({len(metrics.splitlines())} lines, {completed[0]})", flush=True)

        stats = client.stats()
        assert stats["queue"]["submitted"] >= 6, stats
        assert stats["runtime"]["workers"] == args.workers, stats
        print(
            "stats ok "
            f"(jobs_run={stats['runtime']['jobs_run']}, "
            f"pools_created={stats['runtime']['pools_created']}, "
            f"cache={stats['runtime']['cache']})",
            flush=True,
        )
        print("SMOKE PASSED", flush=True)
        return 0
    finally:
        # SIGINT is the server's graceful stop: it shuts its worker pool
        # down, where SIGTERM would leave the pool's processes orphaned
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()


if __name__ == "__main__":
    sys.exit(main())
