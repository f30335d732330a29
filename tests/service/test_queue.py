"""Tests for the :class:`repro.service.JobQueue`.

Covers the queue guarantees: futures resolve with correct (relabeled)
schedules, cache hits are answered at submission, a backed-up queue drains
in submission order, identical in-flight content coalesces onto one job, and
the ``max_pending`` bound exerts real backpressure.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro import AnalysisProblem, analyze
from repro.core.analyzer import register_algorithm
from repro.core.schedule import Schedule, ScheduledTask
from repro.errors import EngineError, QueueFullError, ServiceError
from repro.generators import fixed_ls_workload
from repro.service import EngineRuntime, JobQueue


def _problem(seed: int, name: str = None):
    problem = fixed_ls_workload(16, 4, core_count=4, seed=seed).to_problem()
    if name is None:
        return problem
    return AnalysisProblem(
        graph=problem.graph,
        mapping=problem.mapping,
        platform=problem.platform,
        arbiter=problem.arbiter,
        horizon=problem.horizon,
        name=name,
        validate=False,
    )


def _null_schedule(problem, algorithm: str):
    entries = [
        ScheduledTask(
            name=task.name,
            core=problem.mapping.core_of(task.name),
            release=0,
            wcet=task.wcet,
        )
        for task in problem.graph
    ]
    return Schedule(entries, algorithm=algorithm, problem_name=problem.name)


@pytest.fixture
def runtime():
    with EngineRuntime(max_workers=1) as rt:
        yield rt


class _Gate:
    """Registry algorithm that blocks the dispatcher until released."""

    def __init__(self, name: str):
        self.name = name
        self.release = threading.Event()
        self.entered = threading.Event()
        register_algorithm(name, self, overwrite=True)

    def __call__(self, problem):
        self.entered.set()
        assert self.release.wait(timeout=30), "gate was never released"
        return _null_schedule(problem, self.name)


class TestFutures:
    def test_submit_resolves_to_the_analysis_schedule(self, runtime):
        queue = JobQueue(runtime)
        problem = _problem(1)
        future = queue.submit(problem)
        schedule = future.result(timeout=30)
        assert schedule.to_dict()["entries"] == analyze(problem).to_dict()["entries"]
        assert schedule.problem_name == problem.name
        queue.close()

    def test_map_preserves_submission_order(self, runtime):
        queue = JobQueue(runtime)
        problems = [_problem(seed, name=f"job-{seed}") for seed in range(4)]
        futures = queue.map(problems)
        schedules = [future.result(timeout=30) for future in futures]
        assert [s.problem_name for s in schedules] == [f"job-{seed}" for seed in range(4)]
        queue.close()

    def test_failed_job_fails_only_its_own_future(self, runtime):
        def _fail(problem):
            raise ValueError("no")

        register_algorithm("svc-queue-fail", _fail, overwrite=True)
        queue = JobQueue(runtime)
        good = queue.submit(_problem(1))
        bad = queue.submit(_problem(2), algorithm="svc-queue-fail")
        assert good.result(timeout=30).schedulable is not None
        with pytest.raises(EngineError, match="ValueError"):
            bad.result(timeout=30)
        stats = queue.stats()
        assert stats.completed == 1
        assert stats.failed == 1
        queue.close()

    def test_mixed_algorithms_in_one_drain(self, runtime):
        gate = _Gate("svc-queue-gate-mixed")
        queue = JobQueue(runtime)
        blocker = queue.submit(_problem(10), algorithm=gate.name)
        assert gate.entered.wait(timeout=30)
        # both queued while the dispatcher is blocked: drained as one burst
        one = queue.submit(_problem(11), algorithm="incremental")
        two = queue.submit(_problem(12), algorithm="fixedpoint")
        gate.release.set()
        assert one.result(timeout=30).algorithm == "incremental"
        assert two.result(timeout=30).algorithm == "fixedpoint"
        assert blocker.result(timeout=30).algorithm == gate.name
        queue.close()


class TestDrainOrder:
    def test_backed_up_jobs_run_in_submission_order(self, runtime):
        recorded = []

        def _recorder(problem):
            recorded.append(problem.name)
            return _null_schedule(problem, "svc-queue-recorder")

        register_algorithm("svc-queue-recorder", _recorder, overwrite=True)
        gate = _Gate("svc-queue-gate-order")
        queue = JobQueue(runtime)
        blocker = queue.submit(_problem(20), algorithm=gate.name)
        assert gate.entered.wait(timeout=30)
        names = ["third", "first", "second"]
        futures = [
            queue.submit(_problem(21 + k, name=name), algorithm="svc-queue-recorder")
            for k, name in enumerate(names)
        ]
        gate.release.set()
        assert [future.result(timeout=30).problem_name for future in futures] == names
        blocker.result(timeout=30)
        assert recorded == names  # one drain, run first-in first-out
        queue.close()

    def test_priority_is_not_accepted(self, runtime):
        queue = JobQueue(runtime)
        with pytest.raises(TypeError, match="priority"):
            queue.submit(_problem(25), priority=1)
        with pytest.raises(TypeError, match="priority"):
            queue.map([_problem(25)], priority=1)
        queue.close()


class TestCoalescing:
    def test_identical_queued_content_coalesces(self, runtime):
        gate = _Gate("svc-queue-gate-co")
        queue = JobQueue(runtime)
        blocker = queue.submit(_problem(30), algorithm=gate.name)
        assert gate.entered.wait(timeout=30)
        first = queue.submit(_problem(31))
        second = queue.submit(_problem(31))  # same content digest: no new work
        gate.release.set()
        a = first.result(timeout=30)
        b = second.result(timeout=30)
        blocker.result(timeout=30)
        assert a.to_dict()["entries"] == b.to_dict()["entries"]
        assert a is not b  # coalesced futures never share one mutable schedule
        assert queue.stats().coalesced == 1
        queue.close()

    def test_coalesces_onto_in_flight_job(self, runtime):
        gate = _Gate("svc-queue-gate-flight")
        queue = JobQueue(runtime)
        running = queue.submit(_problem(32), algorithm=gate.name)
        assert gate.entered.wait(timeout=30)
        follower = queue.submit(_problem(32), algorithm=gate.name)
        assert queue.stats().coalesced == 1
        assert queue.stats().pending == 0  # attached, not queued
        gate.release.set()
        assert running.result(timeout=30).to_dict()["entries"] == (
            follower.result(timeout=30).to_dict()["entries"]
        )
        queue.close()

    def test_uncoalesced_duplicates_get_distinct_correctly_named_schedules(self, runtime):
        """A coalesced follower gets its own, correctly named schedule."""
        queue = JobQueue(runtime)
        first = queue.submit(_problem(36, name="first"))
        second = queue.submit(_problem(36, name="second"))  # identical content
        a = first.result(timeout=30)
        b = second.result(timeout=30)
        assert a is not b
        assert a.problem_name == "first"
        assert b.problem_name == "second"
        assert a.to_dict()["entries"] == b.to_dict()["entries"]
        queue.close()


class TestHitsAtSubmission:
    """Cached content is answered by ``map`` itself; only misses are queued."""

    @staticmethod
    def _warm(queue, problem):
        queue.submit(problem).result(timeout=30)  # analysed once, now cached

    def test_hit_resolves_while_a_miss_holds_the_dispatcher(self, runtime):
        gate = _Gate("svc-queue-gate-hit")
        queue = JobQueue(runtime)
        self._warm(queue, _problem(60))
        blocker = queue.submit(_problem(61), algorithm=gate.name)
        assert gate.entered.wait(timeout=30)
        hit = queue.submit(_problem(60, name="again"))
        assert hit.done()  # before the gate opens
        assert hit.result(timeout=0).problem_name == "again"
        stats = queue.stats()
        assert (stats.submitted, stats.completed, stats.batches) == (3, 2, 2)
        gate.release.set()
        blocker.result(timeout=30)
        queue.close()

    def test_hit_never_waits_at_max_pending(self, runtime):
        gate = _Gate("svc-queue-gate-hit-bp")
        queue = JobQueue(runtime, max_pending=1)
        self._warm(queue, _problem(62))
        blocker = queue.submit(_problem(63), algorithm=gate.name)
        assert gate.entered.wait(timeout=30)
        _wait_until(lambda: queue.stats().pending == 0)  # blocker drained
        filler = queue.submit(_problem(64))  # the one queued slot
        assert queue.stats().pending == 1
        hit = queue.submit(_problem(62), timeout=0.1)  # adds no work: no wait
        assert hit.result(timeout=0) is not None
        gate.release.set()
        blocker.result(timeout=30)
        filler.result(timeout=30)
        queue.close()

    def test_a_burst_is_looked_up_once_and_the_drain_adds_no_lookup(self, runtime):
        gate = _Gate("svc-queue-gate-lookups")
        queue = JobQueue(runtime)
        for seed in (65, 66):
            self._warm(queue, _problem(seed))
        blocker = queue.submit(_problem(67), algorithm=gate.name)
        assert gate.entered.wait(timeout=30)
        lookups = runtime.cache.stats.lookups
        burst = [_problem(seed) for seed in (65, 66, 68, 69, 68)]  # 4 distinct keys
        futures = queue.map(burst)
        assert runtime.cache.stats.lookups - lookups == 4
        assert [future.done() for future in futures] == [True, True, False, False, False]
        gate.release.set()
        assert all(future.result(timeout=30) is not None for future in futures)
        blocker.result(timeout=30)
        assert runtime.cache.stats.lookups - lookups == 4  # the drain looked up nothing
        assert queue.stats().coalesced == 1  # the repeated miss
        queue.close()

    def test_repeated_in_flight_miss_still_coalesces(self, runtime):
        gate = _Gate("svc-queue-gate-hit-co")
        queue = JobQueue(runtime)
        jobs_run = runtime.stats().jobs_run
        running = queue.submit(_problem(70), algorithm=gate.name)
        assert gate.entered.wait(timeout=30)
        follower = queue.submit(_problem(70, name="follower"), algorithm=gate.name)
        assert not follower.done()
        assert queue.stats().coalesced == 1
        gate.release.set()
        assert follower.result(timeout=30).problem_name == "follower"
        running.result(timeout=30)
        assert runtime.stats().jobs_run - jobs_run == 1
        queue.close()

    def test_concurrent_hits_and_misses_keep_every_count(self, runtime):
        """Six submitting threads on two cores, thread switches every µs."""
        queue = JobQueue(runtime)
        warm = [_problem(seed) for seed in (72, 73)]
        for problem in warm:
            self._warm(queue, problem)
        expected, results = {}, {}

        def client(number):
            seeds = [72, 73, 74 + number % 3, 72, 73]  # hits, a shared miss, hits
            expected[number] = [f"c{number}-{position}" for position in range(len(seeds))]
            futures = queue.map(
                [_problem(seed, name=name) for seed, name in zip(seeds, expected[number])]
            )
            results[number] = [future.result(timeout=30).problem_name for future in futures]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == expected  # every client got its own, named answers
        stats = queue.stats()
        assert stats.submitted == stats.completed == 2 + 6 * 5
        assert stats.failed == stats.cancelled == stats.pending == stats.in_flight == 0
        queue.close()

    def test_closed_queue_rejects_a_hit(self, runtime):
        queue = JobQueue(runtime)
        self._warm(queue, _problem(71))
        queue.close()
        with pytest.raises(ServiceError, match="closed"):
            queue.submit(_problem(71))


class TestBackpressure:
    def test_full_queue_times_out_with_queue_full_error(self, runtime):
        gate = _Gate("svc-queue-gate-bp")
        queue = JobQueue(runtime, max_pending=1)
        blocker = queue.submit(_problem(40), algorithm=gate.name)
        assert gate.entered.wait(timeout=30)
        _wait_until(lambda: queue.stats().pending == 0)  # blocker drained
        filler = queue.submit(_problem(41))  # fills the single queued slot
        with pytest.raises(QueueFullError):
            queue.submit(_problem(42), timeout=0.05)
        gate.release.set()
        blocker.result(timeout=30)
        filler.result(timeout=30)
        queue.close()

    def test_blocked_submission_proceeds_when_space_frees(self, runtime):
        gate = _Gate("svc-queue-gate-bp2")
        queue = JobQueue(runtime, max_pending=1)
        blocker = queue.submit(_problem(43), algorithm=gate.name)
        assert gate.entered.wait(timeout=30)
        _wait_until(lambda: queue.stats().pending == 0)
        filler = queue.submit(_problem(44))
        release_timer = threading.Timer(0.1, gate.release.set)
        release_timer.start()
        late = queue.submit(_problem(45), timeout=30)  # blocks, then proceeds
        assert late.result(timeout=30) is not None
        blocker.result(timeout=30)
        filler.result(timeout=30)
        release_timer.cancel()
        queue.close()

    def test_invalid_bounds_rejected(self, runtime):
        with pytest.raises(ServiceError):
            JobQueue(runtime, max_pending=0)

    @pytest.mark.parametrize("parameter", ["coalesce", "max_batch"])
    def test_retired_parameters_are_not_accepted(self, runtime, parameter):
        with pytest.raises(TypeError, match=parameter):
            JobQueue(runtime, **{parameter: 1})


class TestLifecycle:
    def test_closed_queue_rejects_submissions(self, runtime):
        queue = JobQueue(runtime)
        queue.close()
        with pytest.raises(ServiceError, match="closed"):
            queue.submit(_problem(50))

    def test_close_drains_remaining_work_by_default(self, runtime):
        queue = JobQueue(runtime)
        futures = queue.map([_problem(seed) for seed in range(3)])
        queue.close(drain=True)
        assert all(future.result(timeout=1) is not None for future in futures)
        assert queue.stats().completed == 3

    def test_close_without_drain_cancels_queued_jobs(self, runtime):
        gate = _Gate("svc-queue-gate-close")
        queue = JobQueue(runtime)
        running = queue.submit(_problem(51), algorithm=gate.name)
        assert gate.entered.wait(timeout=30)
        queued = queue.submit(_problem(52))
        queue.close(drain=False, timeout=0.2)  # dispatcher still gated: no join
        assert queued.cancelled()
        gate.release.set()
        assert running.result(timeout=30) is not None  # in-flight work completes
        assert queue.stats().cancelled == 1
        queue.close()


def _wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError("condition never became true")
