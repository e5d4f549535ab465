"""The lump-then-solve pipeline: representative-BFS derivation, exactly.

:func:`derive_lumped_chain` builds the lumped chain directly from one
representative configuration per block, never expanding the 2^n
site-labelled space.  Soundness is pinned by equality against the
two-step reference (``lump_chain(derive_chain(...), signature)``) for
every registered signature, and the default ``availability`` pipeline
must be indistinguishable from the hand-built chains it replaced.
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
    signature_for,
)
from repro.markov.availability import _chain
from repro.obs.metrics import MetricsRegistry, use
from repro.reassignment import (
    GroupConsensus,
    KeepVotes,
    WitnessVotingProtocol,
)
from repro.types import site_names

from .test_lumping import assert_same_chain


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
        signature = LUMP_SIGNATURES[protocol]
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
        with pytest.raises(ChainError, match="exceeds 3 blocks"):
            derive_lumped_chain(
                make_protocol("dynamic", site_names(5)),
                LUMP_SIGNATURES["dynamic"],
                max_blocks=3,
            )

    def test_custom_name(self):
        chain = derive_lumped_chain(
            make_protocol("voting", site_names(3)),
            LUMP_SIGNATURES["voting"],
            name="my-chain",
        )
        assert chain.name == "my-chain"

    def test_build_telemetry(self):
        registry = MetricsRegistry()
        with use(registry):
            chain = derive_lumped_chain(
                make_protocol("dynamic", site_names(4)),
                LUMP_SIGNATURES["dynamic"],
            )
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
        """Lumped-vs-unlumped: the public value must not move."""
        hand = chain_for(protocol, n)
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
        """A builder fault is raised, not replaced by the hand-built chain."""

        def broken(*args, **kwargs):
            raise ChainError("builder fault")

        module = importlib.import_module("repro.markov.availability")
        monkeypatch.setattr(module, "derive_lumped_chain", broken)
        registry = MetricsRegistry()
        with use(registry), pytest.raises(ChainError, match="builder fault"):
            availability("hybrid", 5, 2.0)
        assert "markov.build.fallback" not in registry.snapshot()

    def test_below_three_sites_falls_back_to_hand_built_message(self):
        registry = MetricsRegistry()
        with use(registry), pytest.raises(ChainError, match="needs n >= 3"):
            _chain("hybrid", 2)
        assert registry.snapshot()["markov.build.fallback"]["value"] == 1

    def test_unsignatured_protocol_falls_through(self):
        chain = _chain("primary-site-voting", 5)
        assert signature_for("primary-site-voting") is None
        assert_same_chain(chain, chain_for("primary-site-voting", 5))

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
