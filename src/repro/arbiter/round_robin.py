"""Round-Robin bus arbiters (the policy used in the paper's evaluation).

Under Round-Robin arbitration every requesting core is granted one access in
circular order; a core that does not request is skipped.  In the worst case,
each access of the destination waits for **one** access of every other
requesting core, and a competitor can obviously not delay the destination by
more accesses than it performs in total.  Hence, for a destination performing
``d`` accesses and a competitor core performing ``c_k`` accesses on the same
bank::

    interference = latency * sum_k  min(d, c_k)

This matches the paper's illustrative example (Section II-A): three cores each
writing 8 words with a 1-cycle word access receive ``min(8,8) + min(8,8) = 16``
cycles of interference each.

:class:`WeightedRoundRobinArbiter` generalizes the policy: competitor ``k`` may
be granted up to ``weight_k`` consecutive accesses per grant cycle (deficit /
weighted round-robin), so each destination access can be delayed by up to
``weight_k`` competitor accesses.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..errors import ArbiterError
from .base import PerCoreSumArbiter

__all__ = ["RoundRobinArbiter", "WeightedRoundRobinArbiter"]


class RoundRobinArbiter(PerCoreSumArbiter):
    """Fair one-access-per-grant round-robin (the MPPA-256 SMEM bus model of [6]).

    Every competitor core has ``w_k = 1``: each destination access waits for
    at most one access of every other requesting core.
    """

    name = "round-robin"
    default_weight = 1

    def describe(self) -> str:
        return "round-robin: each access waits for at most one access of every other requesting core"


class WeightedRoundRobinArbiter(PerCoreSumArbiter):
    """Weighted round-robin: core ``k`` gets up to ``weights[k]`` grants per cycle.

    ``w_k`` is ``weights[k]``, and ``default_weight`` for cores absent from
    ``weights``.  With all weights equal to 1 this degenerates to
    :class:`RoundRobinArbiter`.
    """

    name = "weighted-round-robin"

    def __init__(
        self, weights: Optional[Mapping[int, int]] = None, *, default_weight: int = 1
    ) -> None:
        if default_weight < 1:
            raise ArbiterError("default_weight must be at least 1")
        self.weights = {}
        for core, weight in (weights or {}).items():
            if weight < 1:
                raise ArbiterError(f"weight of core {core} must be at least 1, got {weight}")
            self.weights[int(core)] = int(weight)
        self.default_weight = int(default_weight)

    def describe(self) -> str:
        return (
            "weighted round-robin: core k may issue up to weight(k) accesses "
            "between two grants of the destination"
        )

    def __repr__(self) -> str:
        return (
            f"WeightedRoundRobinArbiter(weights={self.weights!r}, "
            f"default_weight={self.default_weight})"
        )
