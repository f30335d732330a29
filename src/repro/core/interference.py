"""Interference accounting: the rules every analysis charges by.

This module implements step 5 of Algorithm 1 — and the equivalent computation
inside the fixed-point baseline — in its plainest form:

* interference is computed **per memory bank** and summed over banks;
* interfering tasks that run on the same core as each other are merged into a
  single virtual initiator whose demand is the sum of their demands (the
  "conservative hypothesis" of Section II-C);
* tasks mapped to the destination's own core never interfere with it (they
  cannot execute concurrently);
* banks statically reserved for a core never carry interference;
* a given source task is charged at most once per (destination, bank) pair —
  the ``interfers_with`` bookkeeping of the paper.

Two entry points are provided:

* :class:`InterferenceTracker` — incremental accounting for one destination
  task while it is *alive*, re-evaluating the arbiter on every charge.  The
  incremental analyzer charges on integer tables instead
  (:mod:`repro.core.incremental`) and must match this tracker bit for bit;
* :func:`interference_from_overlaps` — one-shot computation from a complete
  set of overlapping tasks, used by the fixed-point baseline and by the
  schedule validator.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..arbiter import BusArbiter
from ..model import MemoryDemand
from ..platform import MemoryBank, Platform

__all__ = ["InterferenceTracker", "interference_from_overlaps", "IbusCallCounter"]


class IbusCallCounter:
    """Counts calls to the arbiter (reported in :class:`~repro.core.schedule.ScheduleStats`)."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def bump(self) -> None:
        self.count += 1


class InterferenceTracker:
    """Incremental per-bank interference state of one destination task.

    The tracker is created when the destination becomes *alive*.  Each time a
    new task becomes alive on another core, :meth:`add_source` is called; the
    tracker accumulates the source's demand into the per-core competitor table
    of every shared bank both tasks access and re-evaluates the arbiter on the
    complete competitor set (interference may be non-additive, so no shortcut
    is taken).
    """

    __slots__ = (
        "name",
        "core",
        "_demand",
        "_arbiter",
        "_platform",
        "_accounted",
        "_competitors",
        "_per_bank",
        "_total",
        "_counter",
    )

    def __init__(
        self,
        name: str,
        core: int,
        demand: MemoryDemand,
        arbiter: BusArbiter,
        platform: Platform,
        counter: Optional[IbusCallCounter] = None,
    ) -> None:
        self.name = name
        self.core = core
        self._demand = demand
        self._arbiter = arbiter
        self._platform = platform
        #: per bank: set of source task names already charged
        self._accounted: Dict[int, Set[str]] = {}
        #: per bank: accumulated competitor demand per core
        self._competitors: Dict[int, Dict[int, int]] = {}
        #: per bank: interference in cycles
        self._per_bank: Dict[int, int] = {}
        self._total = 0
        self._counter = counter

    # ------------------------------------------------------------------

    @property
    def interference(self) -> int:
        """Current total interference (cycles) over all banks."""
        return self._total

    @property
    def interference_by_bank(self) -> Dict[int, int]:
        """Copy of the per-bank interference values (non-zero entries only)."""
        return {bank: value for bank, value in self._per_bank.items() if value}

    def add_source(self, source_name: str, source_core: int, source_demand: MemoryDemand) -> int:
        """Account for a newly alive task; returns the interference increase (cycles).

        Sources on the destination's own core are ignored (they never run
        concurrently with it).  Adding the same source twice for the same bank
        is a no-op, mirroring the ``interfers_with`` check of Algorithm 1.
        """
        if source_core == self.core:
            return 0
        increase = 0
        for bank_id, dest_accesses in self._demand.items():
            if dest_accesses <= 0:
                continue
            source_accesses = source_demand[bank_id]
            if source_accesses <= 0:
                continue
            bank = self._platform.bank(bank_id)
            if bank.reserved_for is not None:
                # a reserved bank carries traffic from a single core only
                continue
            accounted = self._accounted.setdefault(bank_id, set())
            if source_name in accounted:
                continue
            accounted.add(source_name)
            competitors = self._competitors.setdefault(bank_id, {})
            competitors[source_core] = competitors.get(source_core, 0) + source_accesses
            old = self._per_bank.get(bank_id, 0)
            new = self._arbiter.interference(self.core, dest_accesses, competitors, bank)
            if self._counter is not None:
                self._counter.bump()
            # Monotonicity of the arbiter guarantees new >= old; clamp defensively
            # so a misbehaving third-party arbiter cannot make finish dates move
            # backwards and break the incremental algorithm's invariant.
            if new < old:
                new = old
            self._per_bank[bank_id] = new
            increase += new - old
        self._total += increase
        return increase


def _group_by_core_and_bank(
    sources: Iterable[Tuple[str, int, MemoryDemand]],
    dest_core: int,
    dest_demand: MemoryDemand,
    platform: Platform,
) -> Dict[int, Dict[int, int]]:
    """Competitor table ``{bank: {core: demand}}`` from a set of overlapping sources."""
    table: Dict[int, Dict[int, int]] = {}
    dest_banks = {bank for bank in dest_demand.banks() if dest_demand[bank] > 0}
    for _name, core, demand in sources:
        if core == dest_core:
            continue
        for bank_id in dest_banks:
            accesses = demand[bank_id]
            if accesses <= 0:
                continue
            if platform.bank(bank_id).reserved_for is not None:
                continue
            per_core = table.setdefault(bank_id, {})
            per_core[core] = per_core.get(core, 0) + accesses
    return table


def interference_from_overlaps(
    dest_core: int,
    dest_demand: MemoryDemand,
    sources: Iterable[Tuple[str, int, MemoryDemand]],
    arbiter: BusArbiter,
    platform: Platform,
    counter: Optional[IbusCallCounter] = None,
) -> Dict[int, int]:
    """One-shot per-bank interference given the complete set of overlapping sources.

    ``sources`` yields ``(task name, core, demand)`` triples for every task
    whose execution window overlaps the destination's.  Returns the per-bank
    interference (cycles); sum the values for the total.
    """
    table = _group_by_core_and_bank(sources, dest_core, dest_demand, platform)
    result: Dict[int, int] = {}
    for bank_id, competitors in table.items():
        dest_accesses = dest_demand[bank_id]
        bank = platform.bank(bank_id)
        value = arbiter.interference(dest_core, dest_accesses, competitors, bank)
        if counter is not None:
            counter.bump()
        if value:
            result[bank_id] = value
    return result
