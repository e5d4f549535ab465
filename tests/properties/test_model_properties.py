"""Property tests for the stochastic model and chain machinery."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PROTOCOLS, make_protocol
from repro.markov import ANALYTIC_PROTOCOLS, availability_exact, chain_for
from repro.sim import Rates, StochasticReplicaSystem
from repro.types import site_names

CHAINED = sorted(set(ANALYTIC_PROTOCOLS) - {"primary-site-voting", "primary-copy"})

ratios = st.fractions(min_value=Fraction(1, 10), max_value=Fraction(20), max_denominator=40)


@given(name=st.sampled_from(CHAINED), n=st.integers(3, 7), ratio=ratios)
@settings(max_examples=60, deadline=None)
def test_exact_steady_state_is_a_distribution(name, n, ratio):
    chain = chain_for(name, n)
    pi = chain.steady_state_exact(ratio)
    assert sum(pi.values()) == 1
    assert all(p > 0 for p in pi.values())  # irreducible => strictly positive


@given(name=st.sampled_from(CHAINED), n=st.integers(3, 7), ratio=ratios)
@settings(max_examples=60, deadline=None)
def test_availability_within_bounds(name, n, ratio):
    value = availability_exact(name, n, ratio)
    up = ratio / (1 + ratio)
    assert 0 < value <= up


@given(
    name=st.sampled_from(CHAINED),
    n=st.integers(3, 6),
    lo=ratios,
    hi=ratios,
)
@settings(max_examples=40, deadline=None)
def test_availability_monotone_in_ratio(name, n, lo, hi):
    if lo == hi:
        return
    lo, hi = min(lo, hi), max(lo, hi)
    assert availability_exact(name, n, lo) <= availability_exact(name, n, hi)


@given(n=st.integers(3, 10), ratio=ratios)
@settings(max_examples=50, deadline=None)
def test_theorem2_hybrid_dominates_dynamic_exactly(n, ratio):
    assert availability_exact("hybrid", n, ratio) > availability_exact(
        "dynamic", n, ratio
    )


@given(n=st.integers(3, 8), ratio=ratios)
@settings(max_examples=40, deadline=None)
def test_dynamic_linear_dominates_dynamic_exactly(n, ratio):
    # Dynamic-linear strictly extends dynamic voting's quorums, and under
    # the chain model that is a strict availability improvement.
    assert availability_exact("dynamic-linear", n, ratio) > availability_exact(
        "dynamic", n, ratio
    )


@given(
    name=st.sampled_from(sorted(PROTOCOLS)),
    seed=st.integers(0, 10_000),
    events=st.integers(1, 60),
)
@settings(max_examples=60, deadline=None)
def test_model_runs_never_corrupt_metadata(name, seed, events):
    """Random short runs: every intermediate state is internally coherent."""
    protocol = make_protocol(name, site_names(4))
    system = StochasticReplicaSystem(
        protocol, Rates.from_ratio(1.0), random.Random(seed)
    )
    for _ in range(events):
        system.step()
        top = max(m.version for m in system.copies.values())
        holders = {s for s, m in system.copies.items() if m.version == top}
        metas = {system.copies[s] for s in holders}
        assert len(metas) == 1
        if system.available:
            # The up set just committed: all up sites share the top version.
            assert holders >= system.up
