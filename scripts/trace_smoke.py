#!/usr/bin/env python3
"""End-to-end tracing smoke test: traced batch + traced serve round trip.

Used by the CI ``trace-smoke`` job (and runnable by hand) to prove the
observability stack against real subprocesses:

1. ``repro-rta batch --trace-out`` on two tiny problems — the emitted file
   must validate against the Chrome trace-event schema and contain the CLI,
   engine and kernel span families under one trace id;
2. ``repro-rta serve --trace-dir`` booted on an ephemeral port, driven by a
   traced :class:`ServiceClient` — the client-side trace must stitch the
   server's spans under its own ``client.request`` spans (one distributed
   trace), the export must validate, and the server must have persisted
   ``requests-<port>.jsonl`` / ``spans-<port>.jsonl``.

Usage::

    python scripts/trace_smoke.py [--timeout SECONDS]

Exits 0 on success, 1 on any mismatch or timeout.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs  # noqa: E402
from repro.generators import fixed_ls_workload  # noqa: E402
from repro.io import save_problem  # noqa: E402
from repro.service import ServiceClient  # noqa: E402


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _names(document):
    return {event["name"] for event in document["traceEvents"] if event["ph"] == "X"}


def smoke_batch(workdir: Path, timeout: float) -> None:
    """``repro-rta batch --trace-out`` emits one valid single-trace document."""
    paths = []
    for seed in range(2):
        problem = fixed_ls_workload(16, 4, core_count=4, seed=seed).to_problem()
        path = workdir / f"p{seed}.json"
        save_problem(problem, path)
        paths.append(str(path))
    trace_path = workdir / "batch-trace.json"
    command = [
        sys.executable,
        "-m",
        "repro.cli.main",
        "batch",
        *paths,
        "--workers",
        "1",
        "--quiet",
        "--trace-out",
        str(trace_path),
    ]
    print("+", " ".join(command), flush=True)
    subprocess.run(command, check=True, env=_env(), timeout=timeout)

    document = json.loads(trace_path.read_text())
    errors = obs.validate_chrome_trace(document)
    assert errors == [], f"schema violations: {errors}"
    names = _names(document)
    required = {"cli.batch", "batch.run", "job.run", "kernel.compile"}
    assert required <= names, f"missing spans: {sorted(required - names)}"
    trace_ids = {
        event["args"]["trace_id"]
        for event in document["traceEvents"]
        if event["ph"] == "X" and "trace_id" in event.get("args", {})
    }
    assert len(trace_ids) <= 1, f"expected one trace id, got {trace_ids}"
    print(f"batch trace ok ({len(names)} span names, schema valid)", flush=True)


def smoke_serve(workdir: Path, timeout: float) -> int:
    """Traced client against ``repro-rta serve --trace-dir``: one stitched trace."""
    trace_dir = workdir / "server-traces"
    command = [
        sys.executable,
        "-m",
        "repro.cli.main",
        "serve",
        "--port",
        "0",
        "--workers",
        "1",
        "--trace-dir",
        str(trace_dir),
    ]
    print("+", " ".join(command), flush=True)
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_env(),
    )
    try:
        lines: "queue.Queue[str]" = queue.Queue()
        reader = threading.Thread(
            target=lambda: [lines.put(raw) for raw in process.stdout], daemon=True
        )
        reader.start()
        deadline = time.monotonic() + timeout
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
        port = int(url.rsplit(":", 1)[1])

        client = ServiceClient(url, timeout=timeout)
        problem = fixed_ls_workload(16, 4, core_count=4, seed=3).to_problem()
        tracer = obs.Tracer(service="cli")
        with tracer.activate():
            with obs.span("cli.smoke"):
                schedule = client.analyze(problem)
                client.stats()
        assert schedule.makespan > 0, schedule

        spans = tracer.spans
        assert len({span.trace_id for span in spans}) == 1, "trace id diverged"
        names = {span.name for span in spans}
        required = {"cli.smoke", "client.request", "http.request", "runtime.batch"}
        assert required <= names, f"missing spans: {sorted(required - names)}"
        by_id = {span.span_id: span for span in spans}
        for span in spans:
            if span.name == "http.request":
                assert by_id[span.parent_id].name == "client.request", span
        print(
            f"stitched trace ok ({len(spans)} spans across "
            f"{len({s.process for s in spans})} processes)",
            flush=True,
        )

        document = obs.chrome_trace_document(spans)
        errors = obs.validate_chrome_trace(document)
        assert errors == [], f"schema violations: {errors}"
        print("export schema ok", flush=True)

        requests_file = trace_dir / f"requests-{port}.jsonl"
        spans_file = trace_dir / f"spans-{port}.jsonl"
        records = [
            json.loads(line) for line in requests_file.read_text().splitlines()
        ]
        assert [r["path"] for r in records] == ["/analyze", "/stats"], records
        assert all(r["status"] == 200 and r["trace_id"] for r in records), records
        assert spans_file.exists() and spans_file.read_text().strip(), spans_file
        print(f"server JSONL logs ok ({len(records)} requests)", flush=True)
        return 0
    finally:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--timeout", type=float, default=60.0)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="repro-trace-smoke-") as tmp:
        workdir = Path(tmp)
        smoke_batch(workdir, args.timeout)
        code = smoke_serve(workdir, args.timeout)
    if code == 0:
        print("TRACE SMOKE PASSED", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
