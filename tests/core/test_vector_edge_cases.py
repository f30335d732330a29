"""Edge cases and backend-selection semantics of the vector analysis core.

Degenerate inputs (empty problem, single task, cyclic mapping order,
degenerate horizon, single-core mapping, tiny and oversized generations) are
pinned against the pure-Python oracle, and the backend selector's error and
fallback behaviour is exercised both with and (simulated) without NumPy.
"""

import random

import pytest

from repro import AnalysisProblem
from repro.core import (
    ParamOverlay,
    analyze,
    analyze_fixedpoint,
    analyze_generation,
    analyze_incremental,
    compile_problem,
    generation_pass_count,
    numpy_available,
    register_algorithm,
    resolve_backend,
)
from repro.core import vector as vector_mod
from repro.engine import AnalysisJob, EngineRuntime
from repro.errors import AnalysisError, MappingError
from repro.generators import fixed_ls_workload
from repro.model import Mapping, MemoryDemand, Task, TaskGraph
from repro.platform import Platform

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="NumPy missing: vector backend unavailable"
)


def fingerprint(schedule):
    return (
        [entry.to_dict() for entry in schedule.entries()],
        schedule.schedulable,
        sorted(schedule.unscheduled),
        schedule.makespan,
        schedule.stats.ibus_calls,
        schedule.stats.inner_iterations,
        schedule.stats.outer_iterations,
        schedule.stats.cursor_steps,
    )


def _single_task_problem(horizon=None):
    graph = TaskGraph("single")
    graph.add_task(Task(name="only", wcet=7, demand=MemoryDemand({0: 3})))
    mapping = Mapping()
    mapping.assign("only", 0)
    return AnalysisProblem(graph, mapping, Platform.symmetric(2, 1), horizon=horizon)


def _one_core_problem(seed=4):
    """Every task on core 0: the overlap set is empty by construction."""
    rng = random.Random(seed)
    graph = TaskGraph("one-core")
    mapping = Mapping()
    names = []
    for i in range(12):
        name = f"t{i}"
        graph.add_task(
            Task(name=name, wcet=rng.randint(1, 20), demand=MemoryDemand({0: rng.randint(0, 5)}))
        )
        mapping.assign(name, 0)
        if names and rng.random() < 0.3:
            graph.add_dependency(rng.choice(names), name)
        names.append(name)
    return AnalysisProblem(graph, mapping, Platform.symmetric(4, 1))


def _cyclic_problem():
    """Per-core order contradicts the dependencies: kernel.cyclic_tasks set."""
    graph = TaskGraph("cyclic")
    graph.add_task(Task(name="a", wcet=5))
    graph.add_task(Task(name="b", wcet=5))
    graph.add_dependency("a", "b")
    mapping = Mapping({0: ["b", "a"]})
    return AnalysisProblem(graph, mapping, Platform.symmetric(2, 1), validate=False)


@needs_numpy
class TestDegenerateProblems:
    """Each degenerate shape is bit-identical to the python oracle."""

    def test_empty_problem(self):
        problem = AnalysisProblem(TaskGraph("empty"), Mapping(), Platform.symmetric(2, 1))
        for analyze_fn in (analyze_fixedpoint, analyze_incremental):
            oracle = analyze_fn(problem, backend="python")
            vector = analyze_fn(problem, backend="vector")
            assert fingerprint(vector) == fingerprint(oracle)
            assert vector.schedulable and not vector.entries()

    def test_single_task(self):
        for horizon in (None, 6, 1_000):
            problem = _single_task_problem(horizon)
            for analyze_fn in (analyze_fixedpoint, analyze_incremental):
                oracle = analyze_fn(problem, backend="python")
                vector = analyze_fn(problem, backend="vector")
                assert fingerprint(vector) == fingerprint(oracle)

    def test_degenerate_horizon(self):
        # horizon=1 is the smallest legal horizon: nothing of wcet 7 fits
        problem = _single_task_problem(horizon=1)
        oracle = analyze_fixedpoint(problem, backend="python")
        vector = analyze_fixedpoint(problem, backend="vector")
        assert fingerprint(vector) == fingerprint(oracle)
        assert not vector.schedulable

    def test_all_tasks_on_one_core(self):
        problem = _one_core_problem()
        for analyze_fn in (analyze_fixedpoint, analyze_incremental):
            oracle = analyze_fn(problem, backend="python")
            vector = analyze_fn(problem, backend="vector")
            assert fingerprint(vector) == fingerprint(oracle)
        # no cross-core overlap: the oracle never calls the arbiter
        assert oracle.stats.ibus_calls == 0

    def test_cyclic_mapping_order(self):
        problem = _cyclic_problem()
        # fixedpoint raises the historical MappingError under both backends
        with pytest.raises(MappingError) as python_err:
            analyze_fixedpoint(problem, backend="python")
        with pytest.raises(MappingError) as vector_err:
            analyze_fixedpoint(problem, backend="vector")
        assert str(vector_err.value) == str(python_err.value)
        # incremental reports the unschedulable verdict identically
        oracle = analyze_incremental(problem, backend="python")
        vector = analyze_incremental(problem, backend="vector")
        assert fingerprint(vector) == fingerprint(oracle)
        assert not vector.schedulable


@needs_numpy
class TestGenerationSizes:
    """Generations of size 1 and larger than the worker pool batch cleanly."""

    def _probes(self, count):
        problem = fixed_ls_workload(20, 4, core_count=4, seed=6).to_problem()
        kernel = compile_problem(problem)
        factors = [0.5 + 0.25 * i for i in range(count)]
        return [
            kernel.with_overlay(kernel.scaled_wcet_overlay(factor))
            for factor in factors
        ]

    @pytest.mark.parametrize("size", [1, 12])
    def test_direct_generation(self, size):
        probes = self._probes(size)
        before = generation_pass_count()
        batched = analyze_generation(probes, "fixedpoint", backend="vector")
        assert generation_pass_count() - before == 1
        serial = [analyze_fixedpoint(p, backend="python") for p in probes]
        for got, want in zip(batched, serial):
            assert fingerprint(got) == fingerprint(want)

    @pytest.mark.parametrize("size", [1, 12])
    def test_runtime_generation(self, size, monkeypatch):
        # force vector resolution regardless of the ambient env setting
        monkeypatch.setenv(vector_mod.BACKEND_ENV, "vector")
        probes = self._probes(size)
        jobs = [AnalysisJob(p, "fixedpoint", index=i) for i, p in enumerate(probes)]
        before = generation_pass_count()
        # size 12 exceeds max_workers=2: batching still takes one pass
        with EngineRuntime(max_workers=2) as runtime:
            results = runtime.run(jobs)
        assert generation_pass_count() - before == 1
        serial = [analyze_fixedpoint(p, backend="python") for p in probes]
        for got, want in zip(results, serial):
            assert fingerprint(got) == fingerprint(want)


@needs_numpy
class TestBisectionGeneration:
    """One bracket-search generation issues exactly one batched pass."""

    def test_bracket_search_counts_one_pass_per_generation(self, monkeypatch):
        from repro.analysis.search import SearchDriver, bracket_search

        monkeypatch.setenv(vector_mod.BACKEND_ENV, "vector")
        problem = fixed_ls_workload(20, 4, core_count=4, seed=6).to_problem(
            horizon=2_000
        )
        kernel = compile_problem(problem)

        def rebuild(factor):
            return kernel.with_overlay(kernel.scaled_wcet_overlay(factor))

        generations = []

        def progress(event):
            generations.append(event.computed)

        before = generation_pass_count()
        driver = SearchDriver("fixedpoint", max_workers=2, progress=progress)
        result = bracket_search(
            rebuild, driver=driver, max_factor=8.0, tolerance=0.25
        )
        passes = generation_pass_count() - before
        # every generation that computed probes ran as exactly one batched
        # pass (fully cached generations cost none)
        assert passes == sum(1 for computed in generations if computed)
        assert passes >= 1

        # the verdict trace is bit-identical to the fully serial search
        serial = SearchDriver("fixedpoint", batch=False)
        expected = bracket_search(
            rebuild, driver=serial, max_factor=8.0, tolerance=0.25
        )
        assert result.breaking_factor == expected.breaking_factor
        assert result.makespan_at_break == expected.makespan_at_break
        assert result.probes == expected.probes


class TestBackendSelection:
    """resolve_backend error/fallback semantics, with and without NumPy."""

    def test_unknown_backend_rejected(self):
        with pytest.raises(AnalysisError, match="unknown analysis backend"):
            resolve_backend("turbo")

    def test_unknown_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(vector_mod.BACKEND_ENV, "gpu")
        with pytest.raises(AnalysisError, match="unknown analysis backend"):
            resolve_backend(None)

    def test_python_always_honoured(self):
        assert resolve_backend("python") == "python"

    @needs_numpy
    def test_auto_prefers_vector_when_numpy_present(self, monkeypatch):
        monkeypatch.delenv(vector_mod.BACKEND_ENV, raising=False)
        assert resolve_backend(None) == "vector"
        assert resolve_backend("auto") == "vector"

    def test_forced_vector_without_numpy_is_a_clean_error(self, monkeypatch):
        monkeypatch.setattr(vector_mod, "_np", None)
        monkeypatch.setattr(vector_mod, "_np_checked", True)
        assert not numpy_available()
        with pytest.raises(AnalysisError, match=r"repro\[fast\]"):
            resolve_backend("vector")
        problem = _single_task_problem()
        with pytest.raises(AnalysisError, match=r"repro\[fast\]"):
            analyze(problem, "fixedpoint", backend="vector")
        with pytest.raises(AnalysisError, match=r"repro\[fast\]"):
            analyze(problem, "incremental", backend="vector")

    def test_auto_without_numpy_falls_back_to_python(self, monkeypatch):
        monkeypatch.setattr(vector_mod, "_np", None)
        monkeypatch.setattr(vector_mod, "_np_checked", True)
        monkeypatch.delenv(vector_mod.BACKEND_ENV, raising=False)
        assert resolve_backend(None) == "python"
        problem = _single_task_problem()
        schedule = analyze(problem, "fixedpoint")
        assert schedule.stats.backend == "python"
        assert schedule.schedulable

    def test_generation_without_numpy_falls_back_per_probe(self, monkeypatch):
        monkeypatch.setattr(vector_mod, "_np", None)
        monkeypatch.setattr(vector_mod, "_np_checked", True)
        monkeypatch.delenv(vector_mod.BACKEND_ENV, raising=False)
        problem = fixed_ls_workload(12, 3, core_count=3, seed=2).to_problem()
        kernel = compile_problem(problem)
        probes = [
            kernel.with_overlay(kernel.scaled_wcet_overlay(f)) for f in (0.8, 1.6)
        ]
        before = generation_pass_count()
        results = analyze_generation(probes, "fixedpoint")
        assert generation_pass_count() - before == 0
        for got, probe in zip(results, probes):
            assert fingerprint(got) == fingerprint(
                analyze_fixedpoint(probe, backend="python")
            )
            assert got.stats.backend == "python"

    def test_backend_kwarg_rejected_for_foreign_algorithms(self):
        def toy(problem):
            return analyze_fixedpoint(problem)

        register_algorithm("toy-nobackend", toy, overwrite=True)
        problem = _single_task_problem()
        with pytest.raises(AnalysisError, match="does not accept a backend"):
            analyze(problem, "toy-nobackend", backend="python")
        # without a backend request the foreign algorithm runs untouched
        assert analyze(problem, "toy-nobackend").schedulable
