"""The Fig. 2 facts and kin, on the hand-built chains and on ``chain_for``.

Each ``Test*Chain`` class states its facts about ``self.chain(n)``, the
hand transcription in :mod:`tests.markov.fig2_reference`; its
``...FromCode`` subclass runs the same facts on the chain
:func:`repro.markov.chain_for` derives from the protocol implementation.
"""

from fractions import Fraction

import pytest

from repro.errors import ChainError
from repro.markov import (
    chain_for,
    primary_copy_availability,
    primary_site_voting_availability,
    state_tuple,
    voting_availability,
)

from .fig2_reference import (
    dynamic_chain,
    dynamic_linear_chain,
    hybrid_chain,
    optimal_candidate_chain,
    primary_site_voting_chain,
    voting_chain,
)


def derived(protocol_name):
    """``chain_for`` for one protocol, shaped like a reference builder."""
    return staticmethod(lambda n: chain_for(protocol_name, n))


class TestHybridChain:
    chain = staticmethod(hybrid_chain)

    def test_size_is_3n_minus_5(self):
        for n in range(3, 21):
            assert self.chain(n).size == 3 * n - 5

    def test_papers_worked_balance_equation(self):
        # 2*mu*B[1] + 3*lambda*A[3] = ((n-2)*mu + 2*lambda)*A[2]
        n = 7
        chain = self.chain(n)
        assert chain.rate(("B", 0), ("A", 2)) == (0, 2)
        assert chain.rate(("A", 3), ("A", 2)) == (3, 0)
        # Outflow of A_2: (n-2) repairs to A_3, 2 failures to B_0.
        assert chain.rate(("A", 2), ("A", 3)) == (0, n - 2)
        assert chain.rate(("A", 2), ("B", 0)) == (2, 0)

    def test_state_tuples_match_figure2(self):
        n = 5
        assert state_tuple(("A", 2), n) == (2, 3, 0)
        assert state_tuple(("A", 4), n) == (4, 4, 0)
        assert state_tuple(("B", 1), n) == (1, 3, 1)
        assert state_tuple(("C", 0), n) == (0, 3, 0)
        # Every state of the chain has its Fig. 2 coordinates, and the
        # 3n - 5 coordinates are distinct.
        assert {state_tuple(state, n) for state in self.chain(n).states} == (
            {(2, 3, 0)}
            | {(k, k, 0) for k in range(3, n + 1)}
            | {(x, 3, z) for x in (0, 1) for z in range(n - 2)}
        )

    def test_unknown_state_tuple_rejected(self):
        with pytest.raises(ChainError):
            state_tuple(("Z", 1), 5)

    def test_needs_three_sites(self):
        with pytest.raises(ChainError, match="needs n >= 3"):
            self.chain(2)

    def test_top_row_weights(self):
        chain = self.chain(5)
        assert chain.weight(("A", 2)) == Fraction(2, 5)
        assert chain.weight(("A", 5)) == Fraction(1)
        assert chain.weight(("B", 0)) == 0
        assert chain.weight(("C", 2)) == 0

    def test_middle_row_revival_rate_is_two(self):
        # Either of the two down trio members revives the quorum -- the
        # structural reason hybrid beats dynamic-linear (rate mu there).
        chain = self.chain(6)
        for z in range(3):
            assert chain.rate(("B", z), ("A", z + 2)) == (0, 2)

    def test_bottom_row_has_three_repair_paths_to_middle(self):
        chain = self.chain(6)
        assert chain.rate(("C", 1), ("B", 1)) == (0, 3)


class TestHybridChainFromCode(TestHybridChain):
    chain = derived("hybrid")


class TestDynamicChain:
    chain = staticmethod(dynamic_chain)

    def test_size(self):
        for n in (3, 5, 10):
            assert self.chain(n).size == 3 * n - 3

    def test_blocked_revival_needs_the_pair_member(self):
        chain = self.chain(5)
        assert chain.rate(("B", 0), ("A", 2)) == (0, 1)
        assert chain.rate(("C", 0), ("B", 0)) == (0, 2)

    def test_cardinality_floor_is_two(self):
        chain = self.chain(5)
        assert ("A", 2) in chain.states
        assert ("A", 1) not in chain.states


class TestDynamicChainFromCode(TestDynamicChain):
    chain = derived("dynamic")


class TestDynamicLinearChain:
    chain = staticmethod(dynamic_linear_chain)

    def test_size(self):
        for n in (3, 5, 10):
            assert self.chain(n).size == 4 * n - 2

    def test_cardinality_reaches_one(self):
        chain = self.chain(5)
        assert ("A", 1) in chain.states
        assert chain.weight(("A", 1)) == Fraction(1, 5)

    def test_a2_splits_on_which_member_fails(self):
        chain = self.chain(5)
        assert chain.rate(("A", 2), ("A", 1)) == (1, 0)
        assert chain.rate(("A", 2), ("B", 0)) == (1, 0)

    def test_both_pair_down_recovers_through_ds(self):
        chain = self.chain(5)
        assert chain.rate(("C", 1), ("A", 2)) == (0, 1)
        assert chain.rate(("C", 1), ("B", 1)) == (0, 1)


class TestDynamicLinearChainFromCode(TestDynamicLinearChain):
    chain = derived("dynamic-linear")


class TestOptimalChain:
    chain = staticmethod(optimal_candidate_chain)

    def test_blocked_band_is_half_the_sites(self):
        chain = self.chain(6)
        assert ("B", 2) in chain.states  # 1+2 = 3 = n/2: still blocked
        assert ("B", 3) not in chain.states

    def test_witness_escape_arc(self):
        chain = self.chain(5)
        # From (1,2,1) both exits land in A_3: the down pair member's
        # repair (1 path) and either outsider's repair completing a global
        # majority of three (2 paths) -- merged multiplicity 3*mu.
        assert chain.rate(("B", 1), ("A", 3)) == (0, 3)


class TestOptimalChainFromCode(TestOptimalChain):
    chain = derived("optimal-candidate")


class TestVoting:
    def test_chain_matches_closed_form(self):
        for chain in (voting_chain(5), chain_for("voting", 5)):
            for ratio in (Fraction(1, 2), Fraction(2), Fraction(10)):
                assert chain.availability_exact(ratio) == voting_availability(
                    5, ratio
                )

    def test_closed_form_known_value(self):
        # n=1: availability = p = r/(1+r).
        assert voting_availability(1, Fraction(3)) == Fraction(3, 4)

    def test_primary_site_beats_plain_voting_for_even_n(self):
        for ratio in (Fraction(1), Fraction(4)):
            assert primary_site_voting_availability(4, ratio) > voting_availability(
                4, ratio
            )

    def test_primary_site_equals_voting_for_odd_n(self):
        assert primary_site_voting_availability(5, Fraction(2)) == voting_availability(
            5, Fraction(2)
        )

    def test_primary_copy_value(self):
        # p=1/2, n=2: (1/2)(1 + 1/2)/2 = 3/8.
        assert primary_copy_availability(2, Fraction(1)) == Fraction(3, 8)

    def test_chain_for_dispatch(self):
        assert chain_for("hybrid", 5).name == "lumped:hybrid[n=5]"
        # The modified hybrid has a chain of its own, not the hybrid's.
        assert chain_for("modified-hybrid", 5).name == "lumped:modified-hybrid[n=5]"
        assert chain_for("modified-hybrid", 5).size == 13
        with pytest.raises(ChainError, match="no chain for 'primary-copy'"):
            chain_for("primary-copy", 5)


class TestPrimarySiteChain:
    chain = staticmethod(primary_site_voting_chain)

    def test_matches_closed_form_exactly(self):
        for n in (2, 4, 5, 6):
            chain = self.chain(n)
            for ratio in (Fraction(1, 2), Fraction(3)):
                assert chain.availability_exact(
                    ratio
                ) == primary_site_voting_availability(n, ratio)

    def test_state_count_is_2n(self):
        for n in (2, 4, 6):
            assert self.chain(n).size == 2 * n

    def test_tie_states_weighted_only_with_primary(self):
        chain = self.chain(4)
        assert chain.weight((2, 1)) == Fraction(2, 4)
        assert chain.weight((2, 0)) == 0

    def test_matches_derived_chain(self):
        from repro.core import make_protocol
        from repro.markov import derive_chain
        from repro.types import site_names

        derived = derive_chain(make_protocol("primary-site-voting", site_names(4)))
        hand = self.chain(4)
        for ratio in (0.5, 1.0, 3.0):
            assert abs(derived.availability(ratio) - hand.availability(ratio)) < 1e-12

    def test_too_few_sites_rejected(self):
        with pytest.raises(ChainError):
            primary_site_voting_chain(1)


class TestPrimarySiteChainFromCode(TestPrimarySiteChain):
    chain = derived("primary-site-voting")

    def test_too_few_sites_rejected(self):
        # The derived chain exists from one site on; below that, nothing.
        assert self.chain(1).size == 2
        with pytest.raises(ChainError, match="needs n >= 1"):
            self.chain(0)
