"""The hand-built chains of Section VI: the oracle for ``chain_for``.

Each module transcribes one protocol's chain the way the paper draws
Fig. 2: rows of states by hand, arcs by reasoning about the protocol.
:func:`repro.markov.chain_for` derives the same chains from the protocol
code instead, and the tests hold the two equal in every state, weight
and rate (lattice item 1 in docs/ARCHITECTURE.md).  The modified hybrid
has no transcription of its own: Section VII argues that it behaves like
the hybrid, which the tests check on availabilities and blocking times.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.markov import ChainSpec

from .dynamic import dynamic_chain
from .dynamic_linear import dynamic_linear_chain
from .hybrid import hybrid_chain
from .optimal import optimal_candidate_chain
from .voting import primary_site_voting_chain, voting_chain

__all__ = [
    "REFERENCE_CHAINS",
    "dynamic_chain",
    "dynamic_linear_chain",
    "hybrid_chain",
    "optimal_candidate_chain",
    "primary_site_voting_chain",
    "voting_chain",
]

#: Hand-built chain per protocol name.
REFERENCE_CHAINS: dict[str, Callable[[int], ChainSpec]] = {
    "voting": voting_chain,
    "primary-site-voting": primary_site_voting_chain,
    "dynamic": dynamic_chain,
    "dynamic-linear": dynamic_linear_chain,
    "hybrid": hybrid_chain,
    "optimal-candidate": optimal_candidate_chain,
}
