"""Tests for the automatic chain derivation (the chain-vs-code validator)."""

import pytest

from repro.core import make_protocol
from repro.errors import ChainError
from repro.markov import (
    availability,
    derive_chain,
    verify_stale_partitions_blocked,
)
from repro.types import site_names

from .fig2_reference import REFERENCE_CHAINS

CHAINED = ("voting", "dynamic", "dynamic-linear", "hybrid", "optimal-candidate")


class TestDerivedChains:
    @pytest.mark.parametrize("name", CHAINED)
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_derived_availability_matches_hand_built(self, name, n):
        derived = derive_chain(make_protocol(name, site_names(n)))
        hand = REFERENCE_CHAINS[name](n)
        for ratio in (0.4, 1.0, 2.5):
            assert derived.availability(ratio) == pytest.approx(
                hand.availability(ratio), abs=1e-12
            )

    def test_modified_hybrid_matches_hybrid_chain(self):
        # The Section VII equivalence, mechanically: the modified hybrid's
        # derived chain has the hybrid chain's availability.
        for n in (3, 4, 5):
            derived = derive_chain(make_protocol("modified-hybrid", site_names(n)))
            hand = REFERENCE_CHAINS["hybrid"](n)
            for ratio in (0.5, 1.0, 3.0):
                assert derived.availability(ratio) == pytest.approx(
                    hand.availability(ratio), abs=1e-12
                )
                assert availability("modified-hybrid", n, ratio) == pytest.approx(
                    hand.availability(ratio), abs=1e-12
                )

    def test_derived_chain_is_exact_not_lumped(self):
        derived = derive_chain(make_protocol("hybrid", site_names(4)))
        hand = 3 * 4 - 5
        assert derived.size > hand  # site-labelled, so bigger

    def test_initial_configuration_is_available(self):
        derived = derive_chain(make_protocol("dynamic", site_names(3)))
        up_all = frozenset(site_names(3))
        available = [
            s for s in derived.states if s[0] == up_all and s[1] == up_all
        ]
        assert len(available) == 1
        assert derived.weight(available[0]) == 1

    def test_state_cap_enforced(self):
        with pytest.raises(ChainError):
            derive_chain(make_protocol("hybrid", site_names(5)), max_states=10)


class TestStaleInvariant:
    @pytest.mark.parametrize("name", CHAINED + ("modified-hybrid",))
    def test_stale_only_partitions_always_deny(self, name):
        protocol = make_protocol(name, site_names(4))
        verify_stale_partitions_blocked(protocol)

    def test_randomised_full_history_check(self):
        # Beyond the one-generation exhaustive check: run the real model
        # (full per-site metadata history) and assert an acceptance always
        # includes a holder of the globally newest version.
        import random

        from repro.sim import Rates, StochasticReplicaSystem

        for name in CHAINED:
            system = StochasticReplicaSystem(
                make_protocol(name, site_names(5)),
                Rates.from_ratio(0.8),
                random.Random(99),
            )
            for _ in range(2_000):
                newest = max(m.version for m in system.copies.values())
                holders = {
                    s for s, m in system.copies.items() if m.version == newest
                }
                accepted_before = system.updates_accepted
                system.step()
                if system.updates_accepted > accepted_before:
                    assert system.up & holders, (
                        f"{name} accepted an update in a partition with no "
                        "current copy"
                    )
