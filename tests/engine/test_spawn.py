"""Spawn-start-method tests for the batch engine's algorithm registry.

Pool workers started with ``spawn`` (the macOS/Windows default) do not
inherit the parent's runtime state, so algorithms registered with
:func:`register_algorithm` after import would be unknown in the workers.
The engine ships picklable registrations inside the job payload and
re-registers them worker-side; these tests pin that behaviour (CI also runs
the whole engine/analysis suite with ``REPRO_MP_START_METHOD=spawn``).
"""

from __future__ import annotations

import pytest

from repro import analyze_many
from repro.core.analyzer import register_algorithm
from repro.core.schedule import Schedule, ScheduledTask
from repro.engine.executor import START_METHOD_ENV
from repro.engine.jobs import AnalysisJob
from repro.errors import EngineError
from repro.generators import fixed_ls_workload


def _spawn_null_analysis(problem):
    """Module-level plug-in: picklable by reference, importable in a spawn worker."""
    entries = [
        ScheduledTask(
            name=task.name,
            core=problem.mapping.core_of(task.name),
            release=0,
            wcet=task.wcet,
        )
        for task in problem.graph
    ]
    return Schedule(entries, algorithm="spawn-null-test", problem_name=problem.name)


def _sweep(count: int):
    return [
        fixed_ls_workload(16, 4, core_count=4, seed=seed).to_problem() for seed in range(count)
    ]


def test_runtime_registered_algorithm_runs_in_spawn_workers(monkeypatch):
    """The payload carries the registration across the spawn boundary."""
    monkeypatch.setenv(START_METHOD_ENV, "spawn")
    register_algorithm("spawn-null-test", _spawn_null_analysis, overwrite=True)
    schedules = analyze_many(_sweep(3), "spawn-null-test", max_workers=2, chunksize=1)
    assert len(schedules) == 3
    assert all(schedule.algorithm == "spawn-null-test" for schedule in schedules)


def test_builtin_algorithm_under_spawn_matches_serial(monkeypatch):
    problems = _sweep(3)
    serial = analyze_many(problems, max_workers=1)
    monkeypatch.setenv(START_METHOD_ENV, "spawn")
    spawned = analyze_many(problems, max_workers=2, chunksize=1)
    assert [s.to_dict()["entries"] for s in serial] == [s.to_dict()["entries"] for s in spawned]


def test_payload_carries_picklable_registration():
    register_algorithm("spawn-null-test", _spawn_null_analysis, overwrite=True)
    job = AnalysisJob(problem=_sweep(1)[0], algorithm="spawn-null-test")
    assert job.to_payload()["algorithm_function"] is _spawn_null_analysis


def test_payload_omits_unpicklable_registration():
    """Closures stay registry-resolved, not shipped."""
    register_algorithm("spawn-closure-test", lambda problem: None, overwrite=True)
    job = AnalysisJob(problem=_sweep(1)[0], algorithm="spawn-closure-test")
    assert job.to_payload()["algorithm_function"] is None


def test_portability_check_runs_once_per_function_not_per_job(monkeypatch):
    """A big batch must not trial-pickle the same registered function per job."""
    import repro.engine.jobs as jobs_module

    register_algorithm("spawn-null-test", _spawn_null_analysis, overwrite=True)
    calls = []
    real_dumps = jobs_module.pickle.dumps
    monkeypatch.setattr(
        jobs_module.pickle, "dumps", lambda obj, *a, **kw: (calls.append(obj), real_dumps(obj))[1]
    )
    jobs_module._PORTABLE_MEMO.pop(_spawn_null_analysis, None)
    for problem in _sweep(4):
        AnalysisJob(problem=problem, algorithm="spawn-null-test").to_payload()
    assert calls.count(_spawn_null_analysis) == 1


def test_payload_omits_functions_defined_in_main(monkeypatch):
    """__main__ functions may not resolve in a spawn worker; never ship them."""

    def main_defined(problem):  # pragma: no cover - never run
        raise AssertionError

    monkeypatch.setattr(main_defined, "__module__", "__main__")
    register_algorithm("spawn-main-test", main_defined, overwrite=True)
    job = AnalysisJob(problem=_sweep(1)[0], algorithm="spawn-main-test")
    assert job.to_payload()["algorithm_function"] is None


def test_payload_omits_registration_for_unknown_algorithm():
    job = AnalysisJob(problem=_sweep(1)[0], algorithm="never-registered-anywhere")
    assert job.to_payload()["algorithm_function"] is None


def test_from_payload_reregisters_the_shipped_function():
    from repro.core.analyzer import available_algorithms

    register_algorithm("spawn-null-test", _spawn_null_analysis, overwrite=True)
    payload = AnalysisJob(problem=_sweep(1)[0], algorithm="spawn-null-test").to_payload()
    rebuilt = AnalysisJob.from_payload(payload)
    assert "spawn-null-test" in available_algorithms()
    assert rebuilt.run().algorithm == "spawn-null-test"


def test_invalid_start_method_rejected(monkeypatch):
    monkeypatch.setenv(START_METHOD_ENV, "teleport")
    with pytest.raises(EngineError, match="REPRO_MP_START_METHOD"):
        analyze_many(_sweep(2), max_workers=2)
