"""Unit tests for the schedule data structures."""

import pytest

from repro import Schedule, ScheduledTask
from repro.core import ScheduleStats
from repro.errors import UnknownTaskError, ValidationError


def entry(name, core, release, wcet, interference=0):
    banks = {0: interference} if interference else {}
    return ScheduledTask(name=name, core=core, release=release, wcet=wcet,
                         interference_by_bank=banks)


class TestScheduledTask:
    def test_derived_quantities(self):
        task = entry("a", 0, release=10, wcet=5, interference=3)
        assert task.interference == 3
        assert task.response_time == 8
        assert task.finish == 18
        assert task.window == (10, 18)

    def test_multi_bank_interference(self):
        task = ScheduledTask(name="a", core=0, release=0, wcet=5,
                             interference_by_bank={0: 2, 3: 4})
        assert task.interference == 6
        assert task.interference_by_bank == {0: 2, 3: 4}

    def test_zero_interference_entries_dropped(self):
        task = ScheduledTask(name="a", core=0, release=0, wcet=5, interference_by_bank={0: 0})
        assert task.interference_by_bank == {}

    def test_invalid_values_rejected(self):
        with pytest.raises(ValidationError):
            ScheduledTask(name="a", core=0, release=-1, wcet=5)
        with pytest.raises(ValidationError):
            ScheduledTask(name="a", core=0, release=0, wcet=0)
        with pytest.raises(ValidationError):
            ScheduledTask(name="a", core=0, release=0, wcet=5, interference_by_bank={0: -1})

    def test_overlap_detection(self):
        a = entry("a", 0, release=0, wcet=10)
        b = entry("b", 1, release=5, wcet=10)
        c = entry("c", 1, release=10, wcet=10)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)  # half-open windows: [0,10) and [10,20) do not overlap

    def test_dict_roundtrip(self):
        task = ScheduledTask(name="a", core=2, release=7, wcet=5, interference_by_bank={1: 3})
        assert ScheduledTask.from_dict(task.to_dict()) == task


class TestSchedule:
    def build(self):
        return Schedule(
            [
                entry("a", 0, release=0, wcet=10, interference=2),
                entry("b", 1, release=0, wcet=5),
                entry("c", 0, release=12, wcet=8),
            ],
            algorithm="incremental",
            problem_name="unit",
        )

    def test_access(self):
        schedule = self.build()
        assert len(schedule) == 3
        assert "a" in schedule
        assert schedule.entry("b").core == 1
        assert schedule.release("c") == 12
        assert schedule.response_time("a") == 12
        assert schedule.interference("a") == 2
        assert schedule.finish("c") == 20
        with pytest.raises(UnknownTaskError):
            schedule.entry("ghost")

    def test_aggregates(self):
        schedule = self.build()
        assert schedule.makespan == 20
        assert schedule.total_interference == 2
        assert schedule.total_wcet == 23
        assert schedule.interference_ratio() == pytest.approx(2 / 23)

    def test_by_core_sorted_by_release(self):
        by_core = self.build().by_core()
        assert [e.name for e in by_core[0]] == ["a", "c"]
        assert [e.name for e in by_core[1]] == ["b"]

    def test_core_utilization(self):
        utilization = self.build().core_utilization()
        assert utilization[0] == pytest.approx((12 + 8) / 20)
        assert utilization[1] == pytest.approx(5 / 20)

    def test_duplicate_entry_rejected(self):
        with pytest.raises(ValidationError):
            Schedule([entry("a", 0, 0, 1), entry("a", 0, 5, 1)], algorithm="x")

    def test_empty_schedule(self):
        schedule = Schedule([], algorithm="incremental")
        assert schedule.makespan == 0
        assert schedule.total_interference == 0
        assert schedule.interference_ratio() == 0.0

    def test_unschedulable_bookkeeping(self):
        schedule = Schedule(
            [entry("a", 0, 0, 1)], algorithm="incremental", schedulable=False, unscheduled=["z", "y"]
        )
        assert not schedule.schedulable
        assert schedule.unscheduled == ["y", "z"]

    def test_relabeled_copy_differs_only_in_name(self):
        schedule = self.build()
        schedule.stats = ScheduleStats(algorithm="incremental", cursor_steps=5)
        copy = schedule.relabeled("other")
        original, relabeled = schedule.to_dict(), copy.to_dict()
        assert original.pop("problem_name") == "unit"
        assert relabeled.pop("problem_name") == "other"
        assert relabeled == original
        copy.stats.cursor_steps = 99
        copy.unscheduled.append("ghost")
        assert schedule.stats.cursor_steps == 5
        assert schedule.unscheduled == []

    def test_dict_roundtrip(self):
        schedule = self.build()
        schedule.stats = ScheduleStats(algorithm="incremental", cursor_steps=5, ibus_calls=7)
        restored = Schedule.from_dict(schedule.to_dict())
        assert restored.makespan == schedule.makespan
        assert restored.algorithm == "incremental"
        assert restored.entry("a").interference == 2
        assert restored.stats.cursor_steps == 5
        assert restored.stats.ibus_calls == 7
