"""Tests for the persistent :class:`repro.service.EngineRuntime`.

Acceptance criteria of the service PR: a warm runtime performs exactly one
pool construction across many batches and a whole multi-generation search
(counted via the ``pools_created`` test hook), and its results are
bit-identical to the fresh-pool and serial paths — including under the
``spawn`` start method, where pool startup is the dominant cost the runtime
exists to amortize.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import BatchAnalyzer, analyze_many
from repro.analysis import SearchDriver, memory_sensitivity, minimal_horizon
from repro.core.analyzer import register_algorithm
from repro.core.schedule import Schedule, ScheduledTask
from repro.engine import ResultCache, default_worker_count
from repro.engine.executor import START_METHOD_ENV
from repro.engine.jobs import AnalysisJob
from repro.errors import (
    BatchExecutionError,
    EngineError,
    ServiceError,
)
from repro.generators import fixed_ls_workload
from repro.service import EngineRuntime

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


def _sweep(count: int, tasks: int = 16):
    return [
        fixed_ls_workload(tasks, 4, core_count=4, seed=seed).to_problem()
        for seed in range(count)
    ]


def _entries(schedules):
    return [schedule.to_dict()["entries"] for schedule in schedules]


def _jobs(problems):
    return [AnalysisJob(problem=problem, index=index) for index, problem in enumerate(problems)]


class TestHome:
    def test_engine_layer_loads_no_service_module(self):
        """The runtime lives in the engine, which never imports the service."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "import sys, repro.engine\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.service')))\n"
            "import repro.service\n"
            "print(repro.service.EngineRuntime is repro.engine.EngineRuntime)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["[]", "True"]


class TestWorkers:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_bit_identical_to_serial(self, workers):
        problems = _sweep(4)
        serial = analyze_many(problems, max_workers=1)
        with EngineRuntime(max_workers=workers) as runtime:
            warm = analyze_many(problems, runtime=runtime)
        assert _entries(warm) == _entries(serial)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ServiceError):
            EngineRuntime(max_workers=0)

    def test_single_worker_never_builds_a_pool(self):
        with EngineRuntime(max_workers=1) as runtime:
            schedules = analyze_many(_sweep(3), runtime=runtime)
            analyze_many(_sweep(3, tasks=20), runtime=runtime)
        assert len(schedules) == 3
        assert runtime.pools_created == 0  # one worker: serial, no pool

    def test_backend_choice_is_retired(self):
        """A process pool above one worker, none at one: nothing to choose."""
        import repro.engine
        import repro.service

        assert not hasattr(repro.engine, "BACKENDS")
        assert not hasattr(repro.service, "BACKENDS")

    @pytest.mark.parametrize(
        "parameter",
        ["endpoints", "max_in_flight", "retries", "quarantine_seconds", "request_timeout"],
    )
    def test_retired_cluster_parameters_are_not_accepted(self, parameter):
        with pytest.raises(TypeError, match=parameter):
            EngineRuntime(max_workers=1, **{parameter: 1})

    @pytest.mark.parametrize(
        "parameter", ["chunksize", "latency_smoothing", "backend", "recycle_after"]
    )
    def test_retired_tuning_parameters_are_not_accepted(self, parameter):
        with pytest.raises(TypeError, match=parameter):
            EngineRuntime(max_workers=1, **{parameter: 1})

    @pytest.mark.parametrize("max_workers", [1, 3])
    def test_worker_count(self, max_workers):
        with EngineRuntime(max_workers=max_workers) as runtime:
            assert runtime.workers == max_workers
            assert runtime.stats().workers == max_workers

    def test_default_worker_count_is_one_per_cpu(self):
        with EngineRuntime() as runtime:
            assert runtime.workers == default_worker_count()


class TestWarmPoolReuse:
    def test_many_batches_one_pool_construction(self):
        problems = _sweep(4)
        with EngineRuntime(max_workers=2) as runtime:
            for start in range(3):
                # distinct content per batch so the cache cannot short-circuit
                batch = [
                    fixed_ls_workload(16, 4, core_count=4, seed=100 + start * 10 + i).to_problem()
                    for i in range(2)
                ]
                analyze_many(batch, runtime=runtime)
            assert runtime.pools_created == 1
            analyze_many(problems, runtime=runtime)
            assert runtime.pools_created == 1

    def test_three_generation_search_constructs_one_pool(self):
        """Acceptance: a multi-generation search performs one pool construction."""
        problem = _sweep(1, tasks=24)[0]
        horizon = int(minimal_horizon(problem) * 1.2)
        problem = problem.with_horizon(horizon)
        serial = memory_sensitivity(problem, max_factor=8.0, tolerance=0.05)
        generations = []
        with EngineRuntime(max_workers=2) as runtime:
            driver = SearchDriver(runtime=runtime, progress=generations.append)
            warm = memory_sensitivity(problem, max_factor=8.0, tolerance=0.05, driver=driver)
            assert runtime.pools_created == 1  # the test hook the criteria name
        assert len(generations) >= 3  # it really was a multi-generation search
        assert warm == serial  # breaking factor, makespan AND probe trace

    def test_runtime_shared_between_batches_and_searches(self):
        problems = _sweep(3)
        with EngineRuntime(max_workers=2) as runtime:
            analyze_many(problems, runtime=runtime)
            driver = SearchDriver(runtime=runtime)
            horizons = [minimal_horizon(problem, driver=driver) for problem in problems]
            assert runtime.pools_created == 1
        assert horizons == [minimal_horizon(problem) for problem in problems]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_search_at_every_worker_count_matches_serial(self, workers):
        problem = _sweep(1)[0]
        problem = problem.with_horizon(int(minimal_horizon(problem) * 1.2))
        serial = memory_sensitivity(
            problem, max_factor=8.0, tolerance=0.25, driver=SearchDriver(batch=False)
        )
        with EngineRuntime(max_workers=workers) as runtime:
            warm = memory_sensitivity(
                problem, max_factor=8.0, tolerance=0.25, driver=SearchDriver(runtime=runtime)
            )
        assert warm == serial  # breaking factor, makespan AND probe trace


class TestLifecycle:
    def test_close_is_idempotent_and_rejects_new_work(self):
        runtime = EngineRuntime(max_workers=1)
        analyze_many(_sweep(1), runtime=runtime)
        runtime.close()
        runtime.close()
        assert runtime.closed
        with pytest.raises(ServiceError, match="closed"):
            runtime.run([AnalysisJob(problem=_sweep(1)[0])])

    def test_closed_pooled_runtime_rejects_new_work(self):
        runtime = EngineRuntime(max_workers=2)
        analyze_many(_sweep(2), runtime=runtime)
        assert runtime.pools_created == 1
        runtime.close()
        with pytest.raises(ServiceError, match="closed"):
            runtime.run(_jobs(_sweep(1)))

    def test_context_manager_closes(self):
        with EngineRuntime(max_workers=2) as runtime:
            analyze_many(_sweep(2), runtime=runtime)
        assert runtime.closed

    def test_empty_batch_is_a_no_op(self):
        with EngineRuntime(max_workers=2) as runtime:
            assert runtime.run([]) == []
            assert runtime.pools_created == 0

    def test_invalid_per_call_chunksize_rejected(self):
        """The warm path validates chunksize exactly like the transient one."""
        with EngineRuntime(max_workers=2) as runtime:
            with pytest.raises(EngineError, match="chunksize"):
                analyze_many(_sweep(2), runtime=runtime, chunksize=0)


class TestStats:
    def test_stats_snapshot_counts_jobs_and_batches(self):
        with EngineRuntime(max_workers=1) as runtime:
            analyze_many(_sweep(3), runtime=runtime)
            analyze_many(_sweep(3), runtime=runtime)  # warm cache: zero new jobs
            stats = runtime.stats()
        assert stats.workers == 1
        assert stats.batches == 1  # the second call never reached the runtime
        assert stats.jobs_completed == 3
        assert stats.jobs_failed == 0
        assert stats.jobs_run == 3
        assert stats.cache["misses"] == 3
        assert stats.cache["memory_hits"] + stats.cache["disk_hits"] == 3
        assert stats.latency_ewma_seconds is not None
        assert stats.latency_ewma_seconds >= 0.0

    def test_stats_to_dict_round_trip(self):
        with EngineRuntime(max_workers=1) as runtime:
            record = runtime.stats().to_dict()
        assert record["workers"] == 1
        assert record["pools_created"] == 0
        assert record["jobs_run"] == 0
        assert isinstance(record["cache"], dict)

    #: the ``runtime`` section of ``GET /stats``, whatever the worker count
    STATS_KEYS = {
        "analysis_backend",
        "batches",
        "cache",
        "generation_passes",
        "jobs_completed",
        "jobs_failed",
        "jobs_run",
        "kernel_compilations",
        "latency_ewma_seconds",
        "latency_histogram",
        "pools_created",
        "vector_sweeps",
        "warm_start_hits",
        "workers",
    }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stats_keys_are_the_same_at_every_worker_count(self, workers):
        with EngineRuntime(max_workers=workers) as runtime:
            assert set(runtime.stats().to_dict()) == self.STATS_KEYS
            runtime.run(_jobs(_sweep(2)))
            assert set(runtime.stats().to_dict()) == self.STATS_KEYS

    @pytest.mark.parametrize("workers", [1, 2])
    def test_telemetry_counts_jobs_at_every_worker_count(self, workers):
        with EngineRuntime(max_workers=workers) as runtime:
            runtime.run(_jobs(_sweep(4)))
            stats = runtime.stats()
            assert runtime.latency_ewma_seconds == stats.latency_ewma_seconds
        assert stats.workers == workers
        assert stats.pools_created == (0 if workers == 1 else 1)
        assert stats.batches == 1
        assert stats.jobs_completed == 4
        assert stats.jobs_failed == 0
        assert stats.latency_ewma_seconds is not None
        assert stats.latency_histogram["count"] == 4

    def test_failed_jobs_counted(self):
        def _failing(problem):
            raise ValueError("boom")

        register_algorithm("svc-runtime-fail", _failing, overwrite=True)
        with EngineRuntime(max_workers=1) as runtime:
            with pytest.raises(BatchExecutionError):
                analyze_many(_sweep(2), "svc-runtime-fail", runtime=runtime)
            stats = runtime.stats()
        assert stats.jobs_failed == 2
        assert stats.jobs_completed == 0


class TestBatchAnalyzerIntegration:
    def test_runtime_and_max_workers_conflict(self):
        with EngineRuntime(max_workers=1) as runtime:
            with pytest.raises(EngineError, match="max_workers"):
                BatchAnalyzer(max_workers=2, runtime=runtime)

    def test_analyzer_defaults_to_runtime_cache(self):
        with EngineRuntime(max_workers=1) as runtime:
            analyzer = BatchAnalyzer(runtime=runtime)
            assert analyzer.cache is runtime.cache

    def test_explicit_cache_wins_over_runtime_cache(self):
        own = ResultCache()
        with EngineRuntime(max_workers=1) as runtime:
            analyzer = BatchAnalyzer(runtime=runtime, cache=own)
            assert analyzer.cache is own
            assert analyzer.cache is not runtime.cache

    def test_partial_failure_preserves_completed_results(self):
        def _fragile(problem):
            if problem.horizon is not None:
                raise ValueError("rejected")
            entries = [
                ScheduledTask(
                    name=task.name,
                    core=problem.mapping.core_of(task.name),
                    release=0,
                    wcet=task.wcet,
                )
                for task in problem.graph
            ]
            return Schedule(entries, algorithm="svc-fragile", problem_name=problem.name)

        register_algorithm("svc-fragile", _fragile, overwrite=True)
        problems = _sweep(3)
        problems[1] = problems[1].with_horizon(10_000_000)
        with EngineRuntime(max_workers=1) as runtime:
            with pytest.raises(BatchExecutionError) as info:
                analyze_many(problems, "svc-fragile", runtime=runtime)
        assert sorted(info.value.failures) == [1]
        assert info.value.results[0] is not None
        assert info.value.results[1] is None
        assert info.value.results[2] is not None


class TestSpawnStartMethod:
    """Satellite: persistent-pool reuse under ``REPRO_MP_START_METHOD=spawn``.

    One runtime, three consecutive batches plus one whole search: a single
    pool construction, results bit-identical to fresh-pool runs.  This is the
    scenario the runtime exists for — under ``spawn`` each worker boots a
    fresh interpreter, so per-generation pools would pay that boot dozens of
    times.
    """

    def test_one_pool_three_batches_one_search_bit_identical(self, monkeypatch):
        problems = _sweep(3, tasks=24)
        horizon = int(minimal_horizon(problems[0]) * 1.2)
        sensitivity_problem = problems[0].with_horizon(horizon)

        # reference runs: fresh pool / serial path, default start method
        fresh_batches = [
            analyze_many([problem], max_workers=1) for problem in problems
        ]
        fresh_search = memory_sensitivity(sensitivity_problem, max_factor=8.0, tolerance=0.1)

        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        with EngineRuntime(max_workers=2) as runtime:
            warm_batches = [
                analyze_many([problem], runtime=runtime, cache=ResultCache())
                for problem in problems
            ]
            driver = SearchDriver(runtime=runtime, cache=ResultCache())
            warm_search = memory_sensitivity(
                sensitivity_problem, max_factor=8.0, tolerance=0.1, driver=driver
            )
            assert runtime.pools_created == 1  # the single construction
        for fresh, warm in zip(fresh_batches, warm_batches):
            assert _entries(fresh) == _entries(warm)
        assert warm_search == fresh_search
