"""Null arbiter: pretend interference does not exist.

Used to compute the *interference-free* reference schedule — the top timing
diagram of Figure 1 of the paper (makespan 6 instead of 7).  It is obviously
unsound on a real shared-memory platform; its purpose is to quantify how much
of the makespan is due to interference (see
:func:`repro.analysis.statistics.interference_cost`).
"""

from __future__ import annotations

from .base import PerCoreSumArbiter

__all__ = ["NullArbiter"]


class NullArbiter(PerCoreSumArbiter):
    """Always returns zero interference (isolation / interference-ignored analysis).

    Every competitor core has ``w_k = 0``, so every per-core term is 0.
    """

    name = "null"
    default_weight = 0

    def describe(self) -> str:
        return "null arbiter: interference is ignored (isolation reference, unsound on real hardware)"
