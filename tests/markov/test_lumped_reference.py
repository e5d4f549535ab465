"""The role-grouped lumped builder against the n-move reference loop.

:func:`derive_lumped_chain` moves one site per role and weights the arc
by the role's size.  These tests pin that it builds exactly the chain the
loop over all n sites builds -- same state order, same arcs in the same
order, same weights -- and that its self-check fires when a signature
hides what tells two sites apart.
"""

import pytest

from repro.core import make_protocol
from repro.errors import ChainError
from repro.markov import LUMP_SIGNATURES, class_signature, derive_lumped_chain
from repro.reassignment import (
    POLICIES,
    GroupConsensus,
    KeepVotes,
    VoteReassignmentProtocol,
    WitnessVotingProtocol,
)
from repro.types import site_names

from .lumped_reference import chain_layout, reference_lumped_chain


def assert_same_layout(protocol_factory, signature):
    built = derive_lumped_chain(protocol_factory(), signature)
    reference = reference_lumped_chain(protocol_factory(), signature)
    assert chain_layout(built) == chain_layout(reference)


def witness_setup(n, witnesses):
    sites = site_names(n)
    witness_sites = sites[n - witnesses:]
    classes = {
        site: ("witness" if site in witness_sites else "copy") for site in sites
    }
    return sites, witness_sites, class_signature(classes)


@pytest.mark.parametrize("protocol", sorted(LUMP_SIGNATURES))
@pytest.mark.parametrize("n", range(3, 16))
def test_registered_signatures_match_reference(protocol, n):
    def factory():
        return make_protocol(protocol, site_names(n))

    assert_same_layout(factory, LUMP_SIGNATURES[protocol].signature(factory()))


@pytest.mark.parametrize("n", [5, 9])
@pytest.mark.parametrize("witnesses", [1, 2])
@pytest.mark.parametrize("policy", [KeepVotes, GroupConsensus])
def test_witness_class_chains_match_reference(n, witnesses, policy):
    sites, witness_sites, signature = witness_setup(n, witnesses)
    assert_same_layout(
        lambda: WitnessVotingProtocol(sites, witness_sites, policy()), signature
    )


@pytest.mark.parametrize("n", [5, 9])
@pytest.mark.parametrize("policy", ["keep", "group-consensus"])
def test_unit_vote_reassignment_chains_match_reference(n, policy):
    sites = site_names(n)
    assert_same_layout(
        lambda: VoteReassignmentProtocol(sites, POLICIES[policy]()),
        class_signature(dict.fromkeys(sites, "copy")),
    )


def test_self_check_fires_when_the_class_label_is_hidden():
    """Negative control: without the class map, a copy and a witness
    share a role, and their failures reach different blocks."""
    sites, witness_sites, signature = witness_setup(5, 2)
    protocol = WitnessVotingProtocol(sites, witness_sites, KeepVotes())
    with pytest.raises(
        ChainError,
        match=r"sites A and E share a role in block "
        r"\(\('copy', 3, 3, 3\), \('witness', 2, 2, 2\)\) "
        r"but move to different blocks",
    ):
        derive_lumped_chain(protocol, lambda config: signature(config))
