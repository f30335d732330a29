"""cli-panels: the paper's offline path, through the public CLI entry point.

Set-up writes this seed's variants of the LS64 and NL64 panel problems at
n = 100, 400, 1000 and 2000 to files.  One round runs ``repro-rta analyze
FILE --no-gantt --output OUT`` in-process (stdout discarded): ``incremental``
on every file and ``fixedpoint`` on n <= 1000.  A run measures at least one
whole round, and whole rounds until its seconds are up.
The work falls on ``io``, ``model`` validation and the ``core`` analyzers;
the cache and the service are never touched.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

from repro import obs
from repro.core import analyze
from repro.core.schedule import Schedule
from repro.core.validation import validate_schedule
from repro.errors import ReproError
from repro.generators import fixed_ls_workload, fixed_nl_workload
from repro.io.json_io import save_problem

from common import (
    Context,
    base_seed,
    canonical,
    check_golden,
    derive_seed,
    host_scale,
    instrumented,
    layer_self_times,
    median,
    op_geomean,
    round_seconds,
    schedule_record,
    self_times,
    strip_schedule,
    type_medians,
    variant_of,
)

#: the CLI module itself (the package re-exports its ``main`` under the same name)
cli_module = importlib.import_module("repro.cli.main")

NAME = "cli-panels"
SIZES = (100, 400, 1000, 2000)
FIXEDPOINT_SIZES = (100, 400, 1000)
PANELS = (("LS", 64, fixed_ls_workload), ("NL", 64, fixed_nl_workload))
SETUP_REPEATS = 3
MIN_ROUNDS = 1
HEADLINE_SIZE = 400
HEADLINE_REPEATS = 3


class Panel(NamedTuple):
    problem: object
    path: Path
    size: int


class Op(NamedTuple):
    label: str
    size: int
    algorithm: str


class Sample(NamedTuple):
    op: Op
    seconds: float  # as measured
    code: int
    output: Path
    scale: float  # to the nominal host (see common.host_scale)

    @property
    def nominal(self) -> float:
        return self.seconds * self.scale


def base_panels() -> Dict[str, Tuple[object, int]]:
    """The fixed LS64/NL64 panel problems, by label (generated once per run)."""
    bases = {}
    for size in SIZES:
        for mode, parameter, generate in PANELS:
            problem = generate(size, parameter, seed=base_seed(NAME, mode, size)).to_problem()
            bases[f"{mode}{parameter}-n{size}"] = (problem, size)
    return bases


def build_panels(bases: Dict[str, Tuple[object, int]], seed: int, directory: Path) -> Dict[str, Panel]:
    """This seed's variant of every panel, written with ``save_problem``."""
    panels = {}
    for label, (base, size) in bases.items():
        problem = variant_of(base, derive_seed(seed, NAME, label) % 100_000)
        panels[label] = Panel(problem, save_problem(problem, directory / f"{label}.json"), size)
    return panels


def operations(panels: Dict[str, Panel]) -> List[Op]:
    ops = []
    for algorithm, sizes in (("incremental", SIZES), ("fixedpoint", FIXEDPOINT_SIZES)):
        for label, panel in panels.items():
            if panel.size in sizes:
                ops.append(Op(label, panel.size, algorithm))
    return sorted(ops, key=lambda op: (op.size, op.algorithm != "incremental", op.label))


def run_cli(path: Path, algorithm: str, output: Path) -> Tuple[int, float]:
    """One ``analyze`` invocation; returns ``(exit code, seconds)``."""
    argv = ["analyze", str(path), "--no-gantt", "--output", str(output), "--algorithm", algorithm]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        started = time.perf_counter()
        try:
            code = cli_module.main(argv)
        except Exception:  # noqa: BLE001 - a crash is a failed operation
            traceback.print_exc(file=sys.stderr)
            code = -1
        return code, time.perf_counter() - started


def setup(ctx: Context, bases: Dict[str, Tuple[object, int]]) -> Tuple[Dict[str, Panel], float]:
    """Write the panel files and warm up (median time of several set-ups)."""
    times = []
    for repeat in range(SETUP_REPEATS):
        directory = ctx.work.sub(f"panels-{repeat}")
        scale = host_scale()
        started = time.perf_counter()
        panels = build_panels(bases, ctx.seed, directory)
        smallest = next(iter(panels.values()))
        run_cli(smallest.path, "incremental", directory / "warmup.json")
        times.append((time.perf_counter() - started) * scale)
    return panels, median(times)


def measure(ops: List[Op], panels: Dict[str, Panel], seconds: float, out: Path) -> List[Sample]:
    """Whole rounds: at least ``MIN_ROUNDS``, and until ``seconds`` are up."""
    samples: List[Sample] = []
    started = time.perf_counter()
    while len(samples) < MIN_ROUNDS * len(ops) or time.perf_counter() - started < seconds:
        for op in ops:
            output = out / f"op-{len(samples)}.json"
            scale = host_scale()
            code, elapsed = run_cli(panels[op.label].path, op.algorithm, output)
            samples.append(Sample(op, elapsed, code, output, scale))
    return samples


def traced_round(ops: List[Op], panels: Dict[str, Panel], out: Path) -> List[Tuple[Sample, List[obs.Span]]]:
    """One round with every call under its own tracer.

    The CLI module's ``load_problem``, ``save_schedule`` and
    ``analysis_report`` are wrapped at their call sites; the analyzers and the
    kernel compiler emit their own spans.
    """
    traced = []
    targets = (
        (cli_module, "load_problem", "request.decode"),
        (cli_module, "save_schedule", "response.encode"),
        (cli_module, "analysis_report", "cli.report"),
    )
    with instrumented(*targets):
        for index, op in enumerate(ops):
            tracer = obs.Tracer(service="perfbench")
            output = out / f"traced-{index}.json"
            scale = host_scale()
            with tracer.activate(), obs.span("cli.analyze", file=op.label, algorithm=op.algorithm):
                code, elapsed = run_cli(panels[op.label].path, op.algorithm, output)
            traced.append((Sample(op, elapsed, code, output, scale), tracer.spans))
    return traced


def check(ctx: Context, samples: List[Sample], panels: Dict[str, Panel]) -> List[dict]:
    """Check every output against the in-process oracle; returns the outputs.

    Each distinct output is also run through ``validate_schedule`` and, for
    the default seed, compared with its golden record.
    """
    expected: Dict[Op, dict] = {}
    documents = []
    for sample in samples:
        op = sample.op
        what = f"{NAME} {op.label}/{op.algorithm}"
        document = {}
        if sample.code != 0:
            ctx.checks.operation(False, f"{what}: exit code {sample.code}")
        else:
            document = strip_schedule(json.loads(sample.output.read_text()))
            if op not in expected:
                problem = panels[op.label].problem
                expected[op] = canonical(analyze(problem, op.algorithm))
                try:
                    validate_schedule(problem, Schedule.from_dict(document))
                except ReproError as exc:
                    ctx.checks.check(False, f"{what}: invalid schedule: {exc}")
                check_golden(ctx, NAME, f"{op.label}/{op.algorithm}", schedule_record(document))
            ok = document == expected[op]
            ctx.checks.operation(ok, f"{what}: CLI schedule differs from in-process analysis")
        documents.append(document)
    return documents


def headline_ratios(panels: Dict[str, Panel]) -> Dict[str, float]:
    """Fixed-point / incremental time on the n=400 panels, per backend."""
    problems = [panel.problem for panel in panels.values() if panel.size == HEADLINE_SIZE]
    ratios = {}
    for backend in ("python", "vector"):
        try:
            totals = {}
            for algorithm in ("incremental", "fixedpoint"):
                total = 0.0
                for problem in problems:
                    times = []
                    for _ in range(HEADLINE_REPEATS):
                        started = time.perf_counter()
                        analyze(problem, algorithm, backend=backend)
                        times.append(time.perf_counter() - started)
                    total += median(times)
                totals[algorithm] = total
            ratios[backend] = totals["fixedpoint"] / totals["incremental"]
        except ReproError:  # the backend is unavailable here (no NumPy)
            ratios[backend] = 0.0
    return ratios


def layers_from_trace(traced: List[Tuple[Sample, List[obs.Span]]]) -> Dict[str, float]:
    per_size: Dict[str, List[float]] = {}
    totals: Dict[str, float] = {}
    root_time = root_self = 0.0
    for sample, spans in traced:
        # scaled like the call's own time, so layers and calls compare
        layers = {layer: seconds * sample.scale for layer, seconds in layer_self_times(spans).items()}
        root = next(s for s in spans if s.name == "cli.analyze")
        root_time += root.duration
        root_self += self_times(spans)[root.span_id]
        size = f"n{sample.op.size}"
        for layer in ("io.problem_from_dict", "model.validate"):
            per_size.setdefault(f"{layer}_ms.{size}", []).append(layers.get(layer, 0.0))
        core = "core.incremental" if sample.op.algorithm == "incremental" else "core.fixedpoint"
        per_size.setdefault(f"{core}_ms.{size}", []).append(layers.get(core, 0.0))
        for layer, seconds in layers.items():
            totals[layer] = totals.get(layer, 0.0) + seconds
    ops = len(traced)
    result = {name: 1000.0 * sum(v) / len(v) for name, v in per_size.items()}
    for layer in ("core.kernel.compile", "io.schedule_encode", "cli.report"):
        result[f"{layer}_ms"] = 1000.0 * totals.get(layer, 0.0) / ops
    result["trace.coverage"] = 1.0 - root_self / root_time if root_time else 0.0
    return result


def run(ctx: Context) -> dict:
    panels, setup_s = setup(ctx, base_panels())
    ops = operations(panels)
    samples = measure(ops, panels, ctx.seconds, ctx.work.sub("out"))
    medians = type_medians((s.op, s.nominal) for s in samples)

    def cli_ms(algorithm: str, size: int) -> float:
        values = [v for op, v in medians.items() if op.algorithm == algorithm and op.size == size]
        return 1000.0 * sum(values) / len(values)

    layers = {
        "cli_incremental_ms.n400": cli_ms("incremental", 400),
        "cli_incremental_ms.n2000": cli_ms("incremental", 2000),
        "cli_fixedpoint_ms.n400": cli_ms("fixedpoint", 400),
        "cli_fixedpoint_ms.n1000": cli_ms("fixedpoint", 1000),
        "samples.ops": len(samples),
    }
    traced = []
    if ctx.trace:
        traced = traced_round(ops, panels, ctx.work.sub("traced"))
        layers.update(layers_from_trace(traced))
        untraced_round = round_seconds((s.op, s.nominal) for s in samples)
        layers["trace.overhead"] = sum(s.nominal for s, _ in traced) / untraced_round - 1.0
        ratios = headline_ratios(panels)
        layers["core.headline_ratio.python"] = ratios["python"]
        layers["core.headline_ratio.vector"] = ratios["vector"]
    documents = check(ctx, samples + [s for s, _ in traced], panels)
    stats = [doc["stats"] for doc in documents[: len(ops)] if doc]
    layers["core.ibus_calls"] = sum(s["ibus_calls"] for s in stats if s["algorithm"] == "incremental")
    layers["core.fixedpoint.inner_iterations"] = sum(
        s["inner_iterations"] for s in stats if s["algorithm"] == "fixedpoint"
    )
    layers["core.vector_sweeps"] = sum(s.get("vector_sweeps", 0) for s in stats)
    layers["core.kernel.compilations"] = sum(s.get("kernel_compilations", 0) for s in stats)
    return {
        "e2e": {
            "setup_s": setup_s,
            "op_geomean_ms": 1000.0 * op_geomean((s.op, s.nominal) for s in samples),
        },
        "layers": layers,
        "info": {
            "ops_per_round": len(ops),
            "samples": len(samples),
            "type_ms": {f"{op.label}/{op.algorithm}": round(1000.0 * v, 1) for op, v in medians.items()},
            "raw_op_geomean_ms": 1000.0 * op_geomean((s.op, s.seconds) for s in samples),
        },
    }
