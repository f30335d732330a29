"""Tests for analyze_many / BatchAnalyzer: parallel == serial, cache reuse.

This file contains the acceptance tests of the engine: a ≥50-problem sweep
analysed with ``max_workers > 1`` must produce schedules byte-identical to the
serial path, and a warm-cache re-run must complete with zero analyzer
invocations (proven through the cache's hit/miss counters).
"""

from __future__ import annotations

import json
from typing import List

import pytest

from repro import AnalysisProblem, BatchAnalyzer, ResultCache, analyze, analyze_many
from repro.core.analyzer import available_algorithms, register_algorithm
from repro.engine import EngineRuntime, ProgressEvent, default_worker_count
from repro.engine.jobs import AnalysisJob
from repro.errors import AnalysisError, EngineError
from repro.generators import fixed_ls_workload


from repro.arbiter import RoundRobinArbiter


class _UnregisteredArbiter(RoundRobinArbiter):
    """Custom arbiter deliberately NOT in the registry (module-level: picklable)."""

    name = "unregistered-custom"


def _sweep(count: int, *, tasks: int = 20, cores: int = 4) -> List[AnalysisProblem]:
    return [
        fixed_ls_workload(tasks, 4, core_count=cores, seed=seed).to_problem()
        for seed in range(count)
    ]


def _canonical(schedule) -> str:
    """Byte-exact rendering of a schedule minus the (nondeterministic) wall time."""
    record = schedule.to_dict()
    record["stats"] = {
        key: value for key, value in record["stats"].items() if key != "wall_time_seconds"
    }
    return json.dumps(record, sort_keys=True)


def test_parallel_identical_to_serial_on_50_problem_sweep():
    problems = _sweep(50)
    serial = analyze_many(problems, max_workers=1)
    parallel = analyze_many(problems, max_workers=2)
    assert len(serial) == len(parallel) == 50
    for one, two in zip(serial, parallel):
        assert _canonical(one) == _canonical(two)


def test_warm_cache_rerun_has_zero_analyzer_invocations():
    problems = _sweep(50)
    analyzer = BatchAnalyzer(max_workers=2)
    cold = analyzer.run(problems)
    assert cold.computed == 50
    assert cold.cached == 0
    assert analyzer.cache.stats.misses == 50
    warm = analyzer.run(problems)
    assert warm.computed == 0  # zero analyzer invocations
    assert warm.cached == 50
    assert analyzer.cache.stats.misses == 50  # unchanged: every lookup hit
    assert analyzer.cache.stats.hits == 50
    for one, two in zip(cold.schedules, warm.schedules):
        assert _canonical(one) == _canonical(two)


def test_parallel_matches_one_by_one_analyze():
    problems = _sweep(8)
    batch = analyze_many(problems, max_workers=2)
    for problem, schedule in zip(problems, batch):
        assert _canonical(schedule) == _canonical(analyze(problem))


def test_results_are_in_submission_order():
    problems = _sweep(12)
    schedules = analyze_many(problems, max_workers=3)
    assert [s.problem_name for s in schedules] == [p.name for p in problems]
    assert [s.makespan for s in schedules] == [analyze(p).makespan for p in problems]


def test_serial_fallback_uses_no_pool(monkeypatch):
    """max_workers=1 must not touch concurrent.futures at all."""
    import repro.engine.runtime as runtime_module

    def _boom(*args, **kwargs):  # pragma: no cover - should never run
        raise AssertionError("ProcessPoolExecutor used in serial mode")

    monkeypatch.setattr(runtime_module, "ProcessPoolExecutor", _boom)
    schedules = analyze_many(_sweep(4), max_workers=1)
    assert len(schedules) == 4


def test_progress_callback_streams_to_completion():
    problems = _sweep(10)
    events: List[ProgressEvent] = []
    analyze_many(problems, max_workers=2, chunksize=2, progress=events.append)
    assert events, "no progress events received"
    assert events[-1].done == 10
    assert events[-1].total == 10
    assert all(0 < event.done <= event.total for event in events)
    assert [event.done for event in events] == sorted(event.done for event in events)


def test_progress_reports_cache_hits_immediately():
    problems = _sweep(5)
    cache = ResultCache()
    analyze_many(problems, max_workers=1, cache=cache)
    events: List[ProgressEvent] = []
    analyze_many(problems, max_workers=1, cache=cache, progress=events.append)
    assert events[0].done == 5  # everything served from cache in one event
    assert events[0].job_name == "(cache)"


def _fragile_analysis(problem):
    """Plug-in that fails on problems carrying a horizon (module-level: fork-safe)."""
    if problem.horizon is not None:
        raise ValueError("fragile analysis rejected this problem")
    return _null_analysis(problem)


@pytest.mark.parametrize("max_workers", [1, 2])
def test_one_failing_job_does_not_discard_the_batch(max_workers):
    """Completed schedules survive (and are cached) when one job fails."""
    from repro.errors import BatchExecutionError

    register_algorithm("fragile-analysis-test", _fragile_analysis, overwrite=True)
    problems = _sweep(4)
    problems[2] = problems[2].with_horizon(10_000_000)  # the failing one
    analyzer = BatchAnalyzer("fragile-analysis-test", max_workers=max_workers)
    with pytest.raises(BatchExecutionError) as excinfo:
        analyzer.run(problems)
    error = excinfo.value
    assert len(error.failures) == 1
    assert "fragile analysis rejected" in next(iter(error.failures.values()))
    assert 2 in error.failures  # keyed by submission index
    completed = [schedule for schedule in error.results if schedule is not None]
    assert len(completed) == 3
    assert error.results[2] is None
    # the three completed results were cached: a retry recomputes only the bad one
    with pytest.raises(BatchExecutionError):
        analyzer.run(problems)
    assert analyzer.cache.stats.hits == 3


def test_duplicate_of_failed_job_is_reported_as_failed():
    """A duplicate whose source job failed must appear in .failures, not as a bare None."""
    from repro.errors import BatchExecutionError

    register_algorithm("fragile-analysis-test", _fragile_analysis, overwrite=True)
    bad = _sweep(1)[0].with_horizon(10_000_000)
    good = _sweep(2)[1]
    analyzer = BatchAnalyzer("fragile-analysis-test", max_workers=1)
    with pytest.raises(BatchExecutionError) as excinfo:
        analyzer.run([bad, bad, good])  # second is an intra-batch duplicate
    error = excinfo.value
    assert len(error.failures) == 2  # the source and its duplicate
    assert any("duplicate of failed job" in message for message in error.failures.values())
    assert set(error.failures) == {0, 1}  # source index and duplicate index
    assert error.results[2] is not None  # the good one survived


def test_unpicklable_payload_does_not_abort_the_batch():
    """Transport failures surface as BatchExecutionError, not raw PicklingError."""
    from repro.errors import BatchExecutionError

    bad, good = _sweep(2)
    bad.arbiter.hook = lambda: None  # unpicklable attribute
    with pytest.raises(BatchExecutionError) as excinfo:
        analyze_many([bad, good], max_workers=2, chunksize=1)
    error = excinfo.value
    assert len(error.failures) >= 1
    completed = [schedule for schedule in error.results if schedule is not None]
    assert completed, "the picklable job's result must survive"


def test_duplicate_problems_in_one_batch_analysed_once():
    """Content-identical problems submitted together reach the analyzer once."""
    problems = _sweep(3)
    batch = problems + problems  # each problem twice
    analyzer = BatchAnalyzer(max_workers=2)
    report = analyzer.run(batch)
    assert report.computed == 3
    assert report.cached == 3
    assert analyzer.cache.stats.misses == 3
    assert len(report.schedules) == 6
    for first, second in zip(report.schedules[:3], report.schedules[3:]):
        assert _canonical(first) == _canonical(second)


def test_parallel_supports_unregistered_custom_arbiters():
    """Workers must use the shipped arbiter object, never a registry lookup."""
    problems = [p.with_arbiter(_UnregisteredArbiter()) for p in _sweep(4)]
    serial = analyze_many(problems, max_workers=1)
    parallel = analyze_many(problems, max_workers=2)
    for one, two in zip(serial, parallel):
        assert _canonical(one) == _canonical(two)


def test_parallel_preserves_parameterized_arbiters():
    """Parallel results equal serial ones even for non-default arbiter parameters."""
    from repro.arbiter import MultiLevelRoundRobinArbiter

    problems = [
        p.with_arbiter(MultiLevelRoundRobinArbiter(group_size=4)) for p in _sweep(6)
    ]
    serial = analyze_many(problems, max_workers=1)
    parallel = analyze_many(problems, max_workers=2)
    for one, two in zip(serial, parallel):
        assert _canonical(one) == _canonical(two)


def test_parameterized_arbiters_do_not_share_cache_entries():
    """Problems differing only in arbiter parameters are distinct cache keys."""
    from repro.arbiter import MultiLevelRoundRobinArbiter

    base = _sweep(1)[0]
    narrow = base.with_arbiter(MultiLevelRoundRobinArbiter(group_size=2))
    wide = base.with_arbiter(MultiLevelRoundRobinArbiter(group_size=4))
    analyzer = BatchAnalyzer(max_workers=1)
    report = analyzer.run([narrow, wide])
    assert report.computed == 2  # no collision, no dedup
    assert analyzer.cache.stats.misses == 2


def test_cache_hits_are_relabeled_with_the_requesting_problem_name():
    """Content digests ignore names; served results must not leak another name."""
    base = fixed_ls_workload(16, 4, core_count=4, seed=1).to_problem()
    renamed = base.with_horizon(None)  # same content, new object
    renamed.name = "renamed-problem"
    analyzer = BatchAnalyzer(max_workers=1)
    first, second = analyzer.run([base, renamed]).schedules
    assert first.problem_name == base.name
    assert second.problem_name == "renamed-problem"


def test_persistent_cache_hits_across_analyzers_are_relabeled(tmp_path):
    """A disk hit written under another name comes back under the asker's."""
    base = fixed_ls_workload(16, 4, core_count=4, seed=1).to_problem()
    renamed = base.with_horizon(None)
    renamed.name = "renamed-problem"
    (first,) = BatchAnalyzer(max_workers=1, cache=tmp_path / "cache").run([base]).schedules
    report = BatchAnalyzer(max_workers=1, cache=tmp_path / "cache").run([renamed])
    assert report.cached == 1 and report.computed == 0
    (second,) = report.schedules
    assert first.problem_name == base.name
    assert second.problem_name == "renamed-problem"
    assert second.to_dict()["entries"] == first.to_dict()["entries"]


def test_cached_incremental_algorithm_is_retired():
    """Result caching lives in the batch front door, not in the registry."""
    assert "cached-incremental" not in available_algorithms()
    with pytest.raises(AnalysisError, match="unknown algorithm 'cached-incremental'"):
        analyze(_sweep(1)[0], "cached-incremental")


def test_cache_write_failure_does_not_discard_results(tmp_path, monkeypatch):
    """A broken cache degrades with a warning; computed schedules still return."""
    import warnings as warnings_module

    from repro.engine.cache import ResultCache as Cache
    from repro.errors import CacheError

    analyzer = BatchAnalyzer(max_workers=1, cache=tmp_path / "cache")

    def broken_put_many(items):
        raise CacheError("disk full")

    monkeypatch.setattr(analyzer.cache, "put_many", broken_put_many)
    with pytest.warns(RuntimeWarning, match="cache writes disabled"):
        report = analyzer.run(_sweep(3))
    assert report.computed == 3
    assert len(report.schedules) == 3


def test_runtime_run_does_not_mutate_caller_job_indices():
    jobs = [AnalysisJob(problem=p, algorithm="incremental", index=10 + i) for i, p in enumerate(_sweep(4))]
    with EngineRuntime(max_workers=2) as runtime:
        runtime.run(jobs, chunksize=1)
    assert [job.index for job in jobs] == [10, 11, 12, 13]


def test_transient_pool_leaves_no_worker_processes():
    import multiprocessing

    analyze_many(_sweep(4), max_workers=2)
    assert multiprocessing.active_children() == []


def test_warm_memory_cache_run_never_encodes_a_schedule(monkeypatch):
    """Warm hits are relabeled copies, not to_dict/from_dict round trips."""
    from repro.core.schedule import Schedule

    problems = _sweep(3)
    analyzer = BatchAnalyzer(max_workers=1)
    cold = analyzer.run(problems + problems)

    def _no_encoding(self):  # pragma: no cover - must never run
        raise AssertionError("Schedule.to_dict called on a warm run")

    monkeypatch.setattr(Schedule, "to_dict", _no_encoding)
    warm = analyzer.run(problems)
    assert warm.cached == 3
    assert [s.problem_name for s in warm.schedules] == [p.name for p in problems]
    monkeypatch.undo()
    for one, two in zip(cold.schedules, warm.schedules):
        assert _canonical(one) == _canonical(two)


def test_mixed_cold_warm_batch():
    """A batch where only half the problems are cached computes only the rest."""
    problems = _sweep(10)
    analyzer = BatchAnalyzer(max_workers=2)
    analyzer.run(problems[:5])
    report = analyzer.run(problems)
    assert report.cached == 5
    assert report.computed == 5


def test_cache_shared_between_algorithms_is_keyed_separately(diamond_problem):
    analyzer_inc = BatchAnalyzer("incremental")
    analyzer_fp = BatchAnalyzer("fixedpoint", cache=analyzer_inc.cache)
    analyzer_inc.run([diamond_problem])
    report = analyzer_fp.run([diamond_problem])
    assert report.computed == 1  # different algorithm -> different key


def test_persistent_cache_across_analyzer_instances(tmp_path):
    problems = _sweep(6)
    path = tmp_path / "cache"
    first = BatchAnalyzer(max_workers=2, cache=path)
    first.run(problems)
    second = BatchAnalyzer(max_workers=2, cache=path)
    report = second.run(problems)
    assert report.computed == 0
    assert second.cache.stats.disk_hits == 6


def test_empty_batch():
    assert analyze_many([]) == []


def test_report_workers_reflects_actual_usage():
    problems = _sweep(2)
    analyzer = BatchAnalyzer(max_workers=8)
    cold = analyzer.run(problems)
    assert cold.workers == 2  # pool is capped at the number of computed jobs
    warm = analyzer.run(problems)
    assert warm.workers == 0  # nothing reached a worker


def test_invalid_worker_count_rejected():
    with pytest.raises(EngineError):
        BatchAnalyzer(max_workers=0)


def test_default_worker_count_positive():
    assert default_worker_count() >= 1


def test_custom_registered_algorithm_runs_in_workers(diamond_problem):
    """Fork start method propagates runtime registrations to the pool."""
    register_algorithm("null-analysis-test", _null_analysis, overwrite=True)
    problems = _sweep(4)
    schedules = analyze_many(problems, "null-analysis-test", max_workers=2)
    assert all(schedule.algorithm == "null-analysis-test" for schedule in schedules)


def _null_analysis(problem):
    """Trivial plug-in algorithm: every task releases at zero, no interference."""
    from repro.core.schedule import Schedule, ScheduledTask

    entries = [
        ScheduledTask(
            name=task.name,
            core=problem.mapping.core_of(task.name),
            release=0,
            wcet=task.wcet,
        )
        for task in problem.graph
    ]
    return Schedule(entries, algorithm="null-analysis-test", problem_name=problem.name)
