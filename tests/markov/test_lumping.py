"""Tests for exact lumping: the derived chains ARE the paper's chains."""

from fractions import Fraction

import pytest

from repro.core import make_protocol
from repro.errors import ChainError
from repro.markov import (
    Arc,
    ChainSpec,
    derive_chain,
    dynamic_linear_signature,
    dynamic_signature,
    hybrid_signature,
    lump_chain,
    voting_signature,
)
from repro.types import site_names

from .fig2_reference import (
    dynamic_chain,
    dynamic_linear_chain,
    hybrid_chain,
    voting_chain,
)

CASES = [
    ("hybrid", hybrid_signature, hybrid_chain),
    ("dynamic", dynamic_signature, dynamic_chain),
    ("dynamic-linear", dynamic_linear_signature, dynamic_linear_chain),
    ("voting", voting_signature, voting_chain),
]


def assert_same_chain(lumped: ChainSpec, hand: ChainSpec) -> None:
    assert set(lumped.states) == set(hand.states)
    for source in hand.states:
        assert lumped.weight(source) == hand.weight(source)
        for target in hand.states:
            if source == target:
                continue
            assert lumped.rate(source, target) == hand.rate(source, target), (
                source,
                target,
            )


class TestPaperChainsAreLumpings:
    @pytest.mark.parametrize("name,signature,builder", CASES)
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_derived_chain_lumps_exactly(self, name, signature, builder, n):
        derived = derive_chain(make_protocol(name, site_names(n)))
        lumped = lump_chain(derived, signature)
        assert_same_chain(lumped, builder(n))

    def test_hybrid_fig2_at_n6(self):
        derived = derive_chain(make_protocol("hybrid", site_names(6)))
        lumped = lump_chain(derived, hybrid_signature)
        assert lumped.size == 3 * 6 - 5
        assert_same_chain(lumped, hybrid_chain(6))


class TestLumpabilityChecking:
    def two_state_pair(self):
        """Two parallel two-state chains with different rates."""
        return ChainSpec(
            "pair",
            ["a1", "a2", "b1", "b2"],
            [
                Arc("a1", "b1", failures=1),
                Arc("b1", "a1", repairs=1),
                Arc("a2", "b2", failures=2),  # different failure rate
                Arc("b2", "a2", repairs=1),
                # weak coupling so the chain is irreducible:
                Arc("a1", "a2", repairs=1),
                Arc("a2", "a1", repairs=1),
            ],
            {"a1": Fraction(1), "a2": Fraction(1)},
        )

    def test_non_lumpable_partition_rejected(self):
        spec = self.two_state_pair()
        with pytest.raises(ChainError, match="not strongly lumpable"):
            lump_chain(spec, lambda s: s[0])  # blocks {a1,a2}, {b1,b2}

    def test_weight_disagreement_rejected(self):
        spec = ChainSpec(
            "w",
            ["a1", "a2", "b"],
            [
                Arc("a1", "b", failures=1),
                Arc("b", "a1", repairs=1),
                Arc("a2", "b", failures=1),
                Arc("b", "a2", repairs=1),
                Arc("a1", "a2", repairs=1),
                Arc("a2", "a1", repairs=1),
            ],
            {"a1": Fraction(1), "a2": Fraction(1, 2)},
        )
        with pytest.raises(ChainError, match="weight"):
            lump_chain(spec, lambda s: s[0])

    def test_identity_signature_is_a_noop(self):
        hand = dynamic_chain(4)
        relumped = lump_chain(hand, lambda s: s)
        assert_same_chain(relumped, hand)

    def test_lumped_chain_preserves_availability(self):
        derived = derive_chain(make_protocol("hybrid", site_names(5)))
        lumped = lump_chain(derived, hybrid_signature)
        for ratio in (0.5, 1.0, 3.0):
            assert lumped.availability(ratio) == pytest.approx(
                derived.availability(ratio), abs=1e-12
            )

    def test_internal_moves_vanish(self):
        # Lumping the voting chain by parity of up-count must fail (not
        # lumpable), demonstrating the checker is doing real work.
        with pytest.raises(ChainError):
            lump_chain(voting_chain(5), lambda s: s[1] % 2)
