"""Bus arbitration policies (IBUS functions) for the interference analysis."""

from .base import BusArbiter, PerCoreSumArbiter, check_request
from .fifo import FifoArbiter
from .fixed_priority import FixedPriorityArbiter
from .multilevel import MultiLevelRoundRobinArbiter
from .null import NullArbiter
from .registry import available_arbiters, create_arbiter, default_arbiter, register_arbiter
from .round_robin import RoundRobinArbiter, WeightedRoundRobinArbiter
from .tdm import TdmArbiter, tdm_isolation_penalty

__all__ = [
    "BusArbiter",
    "PerCoreSumArbiter",
    "check_request",
    "NullArbiter",
    "RoundRobinArbiter",
    "WeightedRoundRobinArbiter",
    "FifoArbiter",
    "FixedPriorityArbiter",
    "TdmArbiter",
    "tdm_isolation_penalty",
    "MultiLevelRoundRobinArbiter",
    "register_arbiter",
    "create_arbiter",
    "available_arbiters",
    "default_arbiter",
]
