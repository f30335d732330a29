"""Disabled-mode tracing must be free: overhead bound asserted < 5%.

Runs :func:`measure_tracing_overhead` on a small deterministic workload.  The
end-to-end disabled-vs-enabled comparison is too noisy to gate CI on, so the
assertion uses the analytic bound instead: the instrumentation touches
``spans_per_run`` call sites per analysis, each costing one disabled-mode
``obs.span()`` no-op, and that total must stay below 5% of the run time.
perfbench's ``trace.overhead`` metric compares a traced round of the real
user paths with an untraced one.
"""

from __future__ import annotations

import time

from repro import obs
from repro.core import analyze_incremental
from repro.generators import fixed_ls_workload


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
    assert disabled_makespan == enabled_makespan, "tracing perturbed the verdict"

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


class TestTracingOverhead:
    def test_disabled_mode_overhead_under_five_percent(self):
        problem = fixed_ls_workload(48, 8, core_count=8, seed=7).to_problem()
        report = measure_tracing_overhead(
            problem, repeats=3, noop_calls=20_000
        )
        assert report["spans_per_run"] >= 1  # the workload is instrumented
        assert report["disabled_seconds"] > 0
        assert report["enabled_seconds"] > 0
        assert report["estimated_disabled_overhead"] < 0.05

    def test_measurement_leaves_tracing_disabled(self):
        problem = fixed_ls_workload(32, 8, core_count=4, seed=7).to_problem()
        measure_tracing_overhead(problem, repeats=1, noop_calls=1_000)
        assert not obs.tracing_enabled()
        assert obs.current_tracer() is None
