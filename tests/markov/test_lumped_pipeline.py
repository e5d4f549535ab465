"""The lump-then-solve pipeline: representative-BFS derivation, exactly.

:func:`derive_lumped_chain` builds the lumped chain directly from one
representative configuration per block, never expanding the 2^n
site-labelled space.  Soundness is pinned by equality against the
two-step reference (``lump_chain(derive_chain(...), signature)``) for
every registered signature, and the default ``availability`` pipeline
must be indistinguishable from the hand-built chains in
:mod:`tests.markov.fig2_reference`.
"""

import importlib
from fractions import Fraction

import pytest

from repro.core import make_protocol
from repro.errors import ChainError
from repro.markov import (
    LUMP_SIGNATURES,
    availability,
    chain_for,
    class_signature,
    derive_chain,
    derive_lumped_chain,
    lump_chain,
)
from repro.markov.availability import _chain
from repro.obs.metrics import MetricsRegistry, use
from repro.reassignment import (
    GroupConsensus,
    KeepVotes,
    WitnessVotingProtocol,
)
from repro.types import site_names

from .fig2_reference import REFERENCE_CHAINS, hybrid_chain
from .test_lumping import assert_same_chain


def signature_of(protocol):
    """The registered signature, built for one protocol instance."""
    return LUMP_SIGNATURES[protocol.name].signature(protocol)


@pytest.fixture(autouse=True)
def _fresh_chain_cache():
    _chain.cache_clear()
    yield
    _chain.cache_clear()


class TestRepresentativeDerivation:
    @pytest.mark.parametrize("protocol", sorted(LUMP_SIGNATURES))
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_lump_of_full_chain(self, protocol, n):
        """One-representative BFS == derive the 2^n chain, then lump it."""
        signature = signature_of(make_protocol(protocol, site_names(n)))
        direct = derive_lumped_chain(
            make_protocol(protocol, site_names(n)), signature
        )
        reference = lump_chain(
            derive_chain(make_protocol(protocol, site_names(n))), signature
        )
        assert_same_chain(direct, reference)

    @pytest.mark.parametrize("witnesses", [1, 2])
    @pytest.mark.parametrize("policy", [KeepVotes, GroupConsensus])
    def test_class_signature_witness_chains(self, witnesses, policy):
        sites = site_names(5)
        witness_sites = sites[5 - witnesses:]
        classes = {
            site: ("witness" if site in witness_sites else "copy")
            for site in sites
        }
        signature = class_signature(classes)
        direct = derive_lumped_chain(
            WitnessVotingProtocol(sites, witness_sites, policy()), signature
        )
        reference = lump_chain(
            derive_chain(WitnessVotingProtocol(sites, witness_sites, policy())),
            signature,
        )
        assert_same_chain(direct, reference)

    def test_block_budget_enforced(self):
        protocol = make_protocol("dynamic", site_names(5))
        with pytest.raises(ChainError, match="exceeds 3 blocks"):
            derive_lumped_chain(protocol, signature_of(protocol), max_blocks=3)

    def test_custom_name(self):
        protocol = make_protocol("voting", site_names(3))
        chain = derive_lumped_chain(
            protocol, signature_of(protocol), name="my-chain"
        )
        assert chain.name == "my-chain"

    def test_build_telemetry(self):
        protocol = make_protocol("dynamic", site_names(4))
        registry = MetricsRegistry()
        with use(registry):
            chain = derive_lumped_chain(protocol, signature_of(protocol))
        snapshot = registry.snapshot()
        assert snapshot["markov.build.lumped.chains"]["value"] == 1
        assert snapshot["markov.build.lumped.states"]["value"] == chain.size
        assert snapshot["markov.build.lumped.arcs"]["value"] > 0

    def test_site_labelled_telemetry(self):
        registry = MetricsRegistry()
        with use(registry):
            chain = derive_chain(make_protocol("voting", site_names(3)))
        snapshot = registry.snapshot()
        assert snapshot["markov.build.site_labelled.chains"]["value"] == 1
        assert snapshot["markov.build.site_labelled.states"]["value"] == chain.size


class TestDefaultPipeline:
    @pytest.mark.parametrize("protocol", sorted(LUMP_SIGNATURES))
    @pytest.mark.parametrize("n", [3, 5])
    def test_availability_matches_hand_built(self, protocol, n):
        """Lumped-vs-hand-built: the public value must not move.

        The modified hybrid is held to the hybrid's transcription, the
        equivalence Section VII argues.
        """
        hand = REFERENCE_CHAINS.get(protocol, hybrid_chain)(n)
        for ratio in (0.3, 1.0, 2.0, 8.0):
            assert availability(protocol, n, ratio) == pytest.approx(
                hand.availability(ratio), abs=1e-12
            ), (protocol, n, ratio)

    @pytest.mark.parametrize("protocol", sorted(LUMP_SIGNATURES))
    def test_chain_is_lumped(self, protocol):
        chain = _chain(protocol, 5)
        assert chain.name == f"lumped:{protocol}[n=5]"

    def test_derivation_error_propagates_at_three_sites_or_more(
        self, monkeypatch
    ):
        """A builder fault reaches the caller: there is no other chain."""

        def broken(*args, **kwargs):
            raise ChainError("builder fault")

        module = importlib.import_module("repro.markov.availability")
        monkeypatch.setattr(module, "derive_lumped_chain", broken)
        with pytest.raises(ChainError, match="builder fault"):
            availability("hybrid", 5, 2.0)

    def test_below_minimum_raises_before_deriving(self, monkeypatch):
        """One ChainError names the protocol's minimum; nothing is built."""

        def unreachable(*args, **kwargs):
            raise AssertionError("derived below the minimum")

        module = importlib.import_module("repro.markov.availability")
        monkeypatch.setattr(module, "derive_lumped_chain", unreachable)
        registry = MetricsRegistry()
        with use(registry), pytest.raises(
            ChainError, match=r"^the hybrid chain needs n >= 3 sites, got 2$"
        ):
            chain_for("hybrid", 2)
        assert not any(name.startswith("markov.") for name in registry.names())

    def test_primary_site_voting_matches_reference(self):
        """The primary moves in a role of its own, so its chain lumps."""
        chain = chain_for("primary-site-voting", 5)
        assert chain.name == "lumped:primary-site-voting[n=5]"
        assert_same_chain(chain, REFERENCE_CHAINS["primary-site-voting"](5))

    def test_large_n_stays_small(self):
        chain = _chain("dynamic", 25)
        assert chain.size == 72  # vs 2^25+ site-labelled states
        pi = chain.steady_state(1.0)
        assert sum(pi.values()) == pytest.approx(1.0, abs=1e-9)

    def test_exact_arithmetic_through_lumped_chain(self):
        """Fraction elimination stays affordable and exact at n=25."""
        chain = _chain("dynamic", 25)
        exact = chain.availability_exact(Fraction(2))
        assert isinstance(exact, Fraction) and 0 < exact < 1
        assert availability("dynamic", 25, 2.0) == pytest.approx(
            float(exact), abs=1e-12
        )
