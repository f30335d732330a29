"""Worst-case FIFO (first-come first-served) bus arbiter.

A work-conserving FIFO bus serves requests in arrival order.  Without any
assumption on arrival phasing, every access of every competitor may be queued
in front of every access of the destination is too pessimistic (that would be
``d * sum_k c_k``); the standard bound — each competitor access delays the
destination at most once — is::

    interference = latency * sum_k c_k

i.e. the destination may have to wait behind the *entire* backlog of every
other core, but each competing access is only counted once.  FIFO is therefore
never better than round-robin for the destination (``c_k >= min(d, c_k)``),
which the ablation benchmark A2 illustrates.
"""

from __future__ import annotations

from .base import PerCoreSumArbiter

__all__ = ["FifoArbiter"]


class FifoArbiter(PerCoreSumArbiter):
    """First-come first-served bus: the destination waits behind every queued access.

    No competitor core is capped (``w_k = None``), so the per-core term is
    ``c_k`` itself.
    """

    name = "fifo"
    default_weight = None

    def describe(self) -> str:
        return "worst-case FIFO: the destination waits behind every access of every competitor"
