"""repro -- dynamic voting replica control (Jajodia & Mutchler, SIGMOD 1987).

A complete reproduction of the dynamic voting protocol family and its
availability analysis:

* :mod:`repro.core` -- the protocols (voting, dynamic voting,
  dynamic-linear, hybrid, and the Section VII variants) as pure quorum
  decision procedures, plus the :class:`~repro.core.ReplicatedFile`
  convenience API.
* :mod:`repro.quorums` -- coteries and vote assignments (the static quorum
  algebra the voting baselines are built on).
* :mod:`repro.sim` -- a discrete-event simulation substrate: the paper's
  stochastic failure model, Monte-Carlo availability estimation, and
  scripted partition scenarios (Fig. 1).
* :mod:`repro.netsim` -- the message-level protocol of Section V: lock
  managers, the three-phase coordinator, catch-up, commit, and the restart
  protocol, over a partitionable message network.
* :mod:`repro.ratfunc` -- exact polynomial / rational-function algebra over
  the rationals (the Maple replacement used for the Theorem 3 proof).
* :mod:`repro.markov` -- the continuous-time Markov chains of Section VI,
  derived from the protocol implementations and solved numerically,
  exactly and symbolically.
* :mod:`repro.analysis` -- availability measures, crossover computation, and
  the generators for every table and figure in the paper.

Quickstart::

    from repro import HybridProtocol, ReplicatedFile

    protocol = HybridProtocol(["A", "B", "C", "D", "E"])
    f = ReplicatedFile(protocol, initial_value="v0")
    f.write({"A", "B", "C"}, "v1")       # three-site quorum
    f.write({"A", "C"}, "v2")            # static phase: two of the trio
    print(f.metadata("A").describe())    # VN=2 SC=3 DS=ABC
"""

from .core import (
    PAPER_PROTOCOLS,
    PROTOCOLS,
    DynamicLinearProtocol,
    DynamicVotingProtocol,
    HybridProtocol,
    MajorityVotingProtocol,
    ModifiedHybridProtocol,
    OptimalCandidateProtocol,
    PrimaryCopyProtocol,
    PrimarySiteVotingProtocol,
    QuorumDecision,
    ReplicaControlProtocol,
    ReplicaMetadata,
    ReplicatedFile,
    Rule,
    UpdateContext,
    UpdateOutcome,
    WeightedVotingProtocol,
    make_protocol,
    protocol_names,
)
from .errors import ProtocolError, QuorumDenied, ReproError
from .types import SiteId, site_names

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SiteId",
    "site_names",
    "ReproError",
    "ProtocolError",
    "QuorumDenied",
    "ReplicaControlProtocol",
    "ReplicaMetadata",
    "QuorumDecision",
    "Rule",
    "UpdateContext",
    "UpdateOutcome",
    "ReplicatedFile",
    "MajorityVotingProtocol",
    "WeightedVotingProtocol",
    "PrimarySiteVotingProtocol",
    "PrimaryCopyProtocol",
    "DynamicVotingProtocol",
    "DynamicLinearProtocol",
    "HybridProtocol",
    "ModifiedHybridProtocol",
    "OptimalCandidateProtocol",
    "PROTOCOLS",
    "PAPER_PROTOCOLS",
    "make_protocol",
    "protocol_names",
]
