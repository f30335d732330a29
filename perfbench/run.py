"""perfbench: one same-machine benchmark of repro's user paths.

Run from the repository root::

    python3 perfbench/run.py --workload cli-panels --seed 1 --seconds 10 --trace 0

Workloads (see README.md in this directory): ``cli-panels`` (the paper's
offline path through the CLI), ``serve-mixed`` (cache hits and misses through
``repro-rta serve``) and ``search-serve`` (sensitivity searches through the
server).  ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` also runs a traced pass and prints the per-layer metrics.  The
metric names and units come from ``BENCHMARK.json`` at the repository root.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": 42, "failed": 0, "metrics": {...}}

``--write-golden`` re-pins golden.json from a run with the default seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: needs the repro sources under {SRC} and {SPEC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    sys.path.insert(0, str(SRC))

    import cli_panels
    import common
    import search_serve
    import serve_mixed

    workloads = {module.NAME: module for module in (cli_panels, serve_mixed, search_serve)}
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r} (one of {', '.join(workloads)})")
    if args.write_golden and args.seed != common.DEFAULT_SEED:
        parser.error(f"--write-golden needs --seed {common.DEFAULT_SEED}")

    work = common.WorkDir(ROOT)
    try:
        ctx = common.Context(
            ROOT, work, args.seed, args.seconds, bool(args.trace), write_golden=args.write_golden
        )
        if args.write_golden:
            ctx.golden[args.workload] = {}
        env = common.environment(ROOT, args.seed)
        result = workloads[args.workload].run(ctx)
    finally:
        work.close()
    if args.write_golden:
        common.GOLDEN_PATH.write_text(json.dumps(ctx.golden, indent=1, sort_keys=True) + "\n")

    env.update(result.get("env", {}))
    print("# env " + json.dumps(env, sort_keys=True))
    print("# info " + json.dumps(result["info"], sort_keys=True))
    for problem in ctx.checks.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)

    if args.trace:
        wanted, values = spec["per_layer"], result["layers"]
    else:
        wanted, values = spec["end_to_end"], result["e2e"]
    metrics = {
        metric["name"]: {"value": float(values.get(metric["name"], 0.0)), "unit": metric["unit"]}
        for metric in wanted
    }
    print(
        json.dumps(
            {
                "correct": ctx.checks.correct,
                "attempted": ctx.checks.attempted,
                "failed": ctx.checks.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
