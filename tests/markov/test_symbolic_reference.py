"""``ChainSpec.availability_symbolic`` against the per-state sum it replaced.

The production path reduces one rational function, ``sum w(s) * X(s) / D``,
from Bareiss's fraction-free pair ``(X, D)``.  The reference below is the
sum it replaced: every state's probability reduced on its own, then the
weighted probabilities added one at a time, each addition reduced again.
Both are canonical (coprime numerator and denominator, monic
denominator), so they must agree coefficient for coefficient.
"""

from __future__ import annotations

import pytest

from repro import markov, reassignment
from repro.markov import LUMP_SIGNATURES, ChainSpec
from repro.ratfunc import Polynomial, RationalFunction
from repro.types import site_names

#: Section VII's vote-reassignment policies.  Their derived chains are
#: site-labelled (16-26 states at n = 3, 176-526 at n = 5, where a
#: symbolic solve of the unlumped chain is out of a test's reach).
SECTION7_POLICIES = ("keep", "group-consensus", "linear-bonus", "trio-freeze")


def per_state_availability(chain: ChainSpec) -> RationalFunction:
    """``sum w(s) * pi(s)`` over the reduced per-state probabilities."""
    total = RationalFunction(Polynomial())
    for state, probability in chain.steady_state_symbolic().items():
        weight = chain.weight(state)
        if weight:
            total = total + probability * RationalFunction.constant(weight)
    return total


def assert_same_coefficients(chain: ChainSpec) -> None:
    produced = chain.availability_symbolic()
    reference = per_state_availability(chain)
    assert produced.numerator.coefficients == reference.numerator.coefficients
    assert produced.denominator.coefficients == reference.denominator.coefficients


@pytest.mark.parametrize("n", range(3, 8))
@pytest.mark.parametrize("protocol", sorted(LUMP_SIGNATURES))
def test_lumped_chains_match_the_per_state_sum(protocol, n):
    assert_same_coefficients(markov.chain_for(protocol, n))


@pytest.mark.parametrize("policy", SECTION7_POLICIES)
def test_section7_derived_chains_match_the_per_state_sum(policy):
    protocol = reassignment.VoteReassignmentProtocol(
        site_names(3), reassignment.POLICIES[policy]()
    )
    assert_same_coefficients(markov.derive_chain(protocol))
