"""Bus arbiter interface: the IBUS function of the paper.

The analysis algorithms are parameterized by an *arbiter*, i.e. an object able
to answer the question (Algorithm 1, step 5 of the paper):

    Given a destination task that performs ``dest_accesses`` accesses on bank
    ``b`` from core ``dest_core``, and a set of competing initiators — one per
    *other* core, each with its own access count on ``b`` — how many cycles of
    interference does the destination suffer on ``b`` in the worst case?

Competing demands are given **per core** (not per task).  The grouping of
alive tasks into one virtual initiator per core is the "conservative
hypothesis" of Section II-C of the paper; the analyses perform it
(:mod:`repro.core.interference`, :mod:`repro.core.incremental`), not the
arbiters, so each arbiter only has to reason about core-level contention.

Soundness contract
------------------
All arbiters must satisfy two properties relied upon by the incremental
algorithm (and checked by the property-based tests in
``tests/arbiter/test_properties.py``):

* **Monotonicity**: increasing any competitor's demand, or adding a new
  competitor, never decreases the returned interference.  This is the paper's
  assumption that "adding a new task to the program can only increase the
  interference received by other tasks".
* **No self-interference / no phantom interference**: with an empty competitor
  set the interference is 0.

Interference may be *non-additive*: the value for a set of competitors is not
required to equal the sum of pairwise values (Section II-C).  The analysis
therefore re-evaluates a generic arbiter on the full competitor set; only a
:class:`PerCoreSumArbiter`, whose bound is one term per competitor core, is
updated term by term.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from types import MappingProxyType
from typing import Mapping, Optional

from ..errors import ArbiterError
from ..platform import MemoryBank

__all__ = ["BusArbiter", "PerCoreSumArbiter", "check_request"]


def check_request(dest_core: int, dest_accesses: int, competitors: Mapping[int, int]) -> None:
    """Validate an IBUS request; raises :class:`ArbiterError` on nonsense inputs."""
    if dest_accesses < 0:
        raise ArbiterError(f"destination access count must be non-negative, got {dest_accesses}")
    if dest_core in competitors:
        raise ArbiterError(
            f"core {dest_core} appears in its own competitor set; "
            "tasks on the destination core never run concurrently with it"
        )
    for demand in competitors.values():
        if demand < 0:
            core = next(core for core, value in competitors.items() if value < 0)
            raise ArbiterError(f"competitor core {core} has negative demand {demand}")


class BusArbiter(ABC):
    """Abstract bus arbitration policy (the IBUS function)."""

    #: short machine-readable policy name, overridden by subclasses
    name: str = "abstract"

    @abstractmethod
    def interference(
        self,
        dest_core: int,
        dest_accesses: int,
        competitors: Mapping[int, int],
        bank: MemoryBank,
    ) -> int:
        """Worst-case interference (cycles) suffered by the destination on ``bank``.

        Parameters
        ----------
        dest_core:
            Core running the destination task.
        dest_accesses:
            Number of accesses the destination performs on ``bank``.
        competitors:
            ``{core identifier: access count}`` for every *other* core with at
            least one task alive and accessing ``bank``.  Never contains
            ``dest_core``.
        bank:
            The contended memory bank (its ``access_latency`` converts access
            counts into cycles).
        """

    # ------------------------------------------------------------------

    def interference_on_private_bank(self, dest_accesses: int, bank: MemoryBank) -> int:
        """Interference on a bank reserved for the destination core: always zero."""
        return 0

    def describe(self) -> str:
        """One-line human readable description (used by reports and the CLI)."""
        return f"{self.name} arbiter"

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class PerCoreSumArbiter(BusArbiter):
    """A bound with one term per competitor core.

    Each of the ``d`` destination accesses waits for at most ``w_k`` of the
    ``c_k`` accesses competitor core ``k`` makes on the bank::

        interference = latency * sum_k min(d * w_k, c_k)

    A subclass states ``w_k`` once, as data: ``weights`` per core,
    ``default_weight`` for the others; ``None`` means no cap (the whole
    backlog).  Core ``k``'s term depends on ``c_k`` alone, so when ``c_k``
    grows from ``old`` to ``new`` the bound grows by ``latency * (min(d * w_k,
    new) - min(d * w_k, old))``: the incremental analysis charges that in
    O(1) from the same data, without calling :meth:`interference`.
    """

    #: ``w_k`` of the cores with a weight of their own
    weights: Mapping[int, int] = MappingProxyType({})
    #: ``w_k`` of every other core (``None``: no cap)
    default_weight: Optional[int] = 1

    def weight_of(self, core: int) -> Optional[int]:
        """``w_k``: accesses of ``core`` one destination access may wait for.

        Read from ``weights`` and ``default_weight``, which define it.
        """
        return self.weights.get(core, self.default_weight)

    def interference(
        self,
        dest_core: int,
        dest_accesses: int,
        competitors: Mapping[int, int],
        bank: MemoryBank,
    ) -> int:
        check_request(dest_core, dest_accesses, competitors)
        if dest_accesses == 0:
            return 0
        weights, default = self.weights, self.default_weight
        if weights:
            delayed = 0
            for core, demand in competitors.items():
                weight = weights.get(core, default)
                if weight is not None and demand > dest_accesses * weight:
                    demand = dest_accesses * weight
                delayed += demand
        elif default is None:  # no cap on any core: the whole backlog
            delayed = sum(competitors.values())
        elif default:  # one cap for every core
            cap = dest_accesses * default
            delayed = 0
            for demand in competitors.values():
                delayed += demand if demand < cap else cap
        else:  # w_k = 0 for every core
            return 0
        return delayed * bank.access_latency
