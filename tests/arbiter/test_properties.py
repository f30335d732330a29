"""Property-based tests of the arbiter soundness contract.

Every registered arbitration policy must satisfy the two properties the
incremental algorithm relies on (see ``repro/arbiter/base.py``):

* zero interference with an empty competitor set;
* monotonicity — growing a competitor's demand, or adding a competitor, never
  decreases the interference.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MemoryBank, Platform
from repro.arbiter import (
    PerCoreSumArbiter,
    WeightedRoundRobinArbiter,
    available_arbiters,
    create_arbiter,
)

BANK = MemoryBank(identifier=0, access_latency=1)
PLATFORM = Platform.symmetric(8, 1)

#: drop aliases so each policy is exercised once
_POLICIES = sorted({name for name in available_arbiters() if name not in ("rr", "mppa", "none")})

competitor_sets = st.dictionaries(
    st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=500), max_size=6
)


@pytest.mark.parametrize("policy", _POLICIES)
@given(demand=st.integers(min_value=0, max_value=500))
@settings(max_examples=25, deadline=None)
def test_empty_competitor_set_gives_zero(policy, demand):
    arbiter = create_arbiter(policy, PLATFORM)
    assert arbiter.interference(0, demand, {}, BANK) == 0


@pytest.mark.parametrize("policy", _POLICIES)
@given(demand=st.integers(min_value=0, max_value=300), competitors=competitor_sets)
@settings(max_examples=50, deadline=None)
def test_interference_is_non_negative(policy, demand, competitors):
    arbiter = create_arbiter(policy, PLATFORM)
    assert arbiter.interference(0, demand, competitors, BANK) >= 0


@pytest.mark.parametrize("policy", _POLICIES)
@given(
    demand=st.integers(min_value=0, max_value=300),
    competitors=competitor_sets,
    extra_core=st.integers(min_value=1, max_value=7),
    extra_demand=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=60, deadline=None)
def test_adding_or_growing_a_competitor_never_decreases_interference(
    policy, demand, competitors, extra_core, extra_demand
):
    arbiter = create_arbiter(policy, PLATFORM)
    before = arbiter.interference(0, demand, competitors, BANK)
    grown = dict(competitors)
    grown[extra_core] = grown.get(extra_core, 0) + extra_demand
    after = arbiter.interference(0, demand, grown, BANK)
    assert after >= before


@pytest.mark.parametrize("policy", _POLICIES)
@given(demand=st.integers(min_value=0, max_value=300), competitors=competitor_sets)
@settings(max_examples=40, deadline=None)
def test_latency_scales_interference_linearly(policy, demand, competitors):
    """Doubling the bank latency at least doubles nothing *less*: interference scales with latency."""
    arbiter = create_arbiter(policy, PLATFORM)
    slow_bank = MemoryBank(identifier=0, access_latency=2)
    fast = arbiter.interference(0, demand, competitors, BANK)
    slow = arbiter.interference(0, demand, competitors, slow_bank)
    assert slow == 2 * fast


@pytest.mark.parametrize("policy", _POLICIES)
def test_describe_is_a_non_empty_string(policy):
    arbiter = create_arbiter(policy, PLATFORM)
    assert isinstance(arbiter.describe(), str)
    assert arbiter.describe()


#: the policies whose bound is a sum of per-core terms, with non-default weights
PER_CORE_SUM = {
    "round-robin": create_arbiter("round-robin"),
    "weighted-round-robin": WeightedRoundRobinArbiter({1: 3, 4: 2}, default_weight=2),
    "fifo": create_arbiter("fifo"),
    "null": create_arbiter("null"),
}

latencies = st.integers(min_value=1, max_value=9)


def _capped(arbiter, demand, core, accesses):
    """``min(d * w_k, c_k)`` from the declared weight (``None``: no cap)."""
    weight = arbiter.weight_of(core)
    return accesses if weight is None else min(demand * weight, accesses)


def test_per_core_sum_policies_are_the_registered_four():
    found = {
        name for name in _POLICIES if isinstance(create_arbiter(name, PLATFORM), PerCoreSumArbiter)
    }
    assert found == set(PER_CORE_SUM)


@pytest.mark.parametrize("policy", sorted(PER_CORE_SUM))
@given(demand=st.integers(min_value=0, max_value=300), competitors=competitor_sets, latency=latencies)
@settings(max_examples=60, deadline=None)
def test_per_core_sum_follows_the_declared_weights(policy, demand, competitors, latency):
    arbiter = PER_CORE_SUM[policy]
    bank = MemoryBank(identifier=0, access_latency=latency)
    expected = 0
    if demand:
        expected = latency * sum(
            _capped(arbiter, demand, core, accesses) for core, accesses in competitors.items()
        )
    assert arbiter.interference(0, demand, competitors, bank) == expected


@pytest.mark.parametrize("policy", sorted(PER_CORE_SUM))
@given(
    demand=st.integers(min_value=0, max_value=300),
    growth=st.lists(
        st.tuples(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=500)),
        max_size=20,
    ),
    latency=latencies,
)
@settings(max_examples=60, deadline=None)
def test_o1_increments_add_up_to_the_bound(policy, demand, growth, latency):
    """Growing core k from ``old`` to ``new`` adds ``latency × (min(d·w_k, new) −
    min(d·w_k, old))``: the charges the incremental analysis makes."""
    arbiter = PER_CORE_SUM[policy]
    bank = MemoryBank(identifier=0, access_latency=latency)
    competitors = {}
    charged = 0
    for core, accesses in growth:
        old = competitors.get(core, 0)
        competitors[core] = old + accesses
        if demand:
            charged += latency * (
                _capped(arbiter, demand, core, old + accesses)
                - _capped(arbiter, demand, core, old)
            )
        assert charged == arbiter.interference(0, demand, competitors, bank)
