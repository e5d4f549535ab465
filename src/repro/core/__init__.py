"""Replica control protocols: the paper's contribution and its baselines.

Public surface:

* :class:`ReplicaMetadata` -- the per-copy (VN, SC, DS) triple.
* :class:`ReplicaControlProtocol` -- the protocol interface
  (``is_distinguished`` / ``attempt_update``).
* The protocol family: :class:`MajorityVotingProtocol`,
  :class:`WeightedVotingProtocol`, :class:`PrimarySiteVotingProtocol`,
  :class:`PrimaryCopyProtocol`, :class:`DynamicVotingProtocol`,
  :class:`DynamicLinearProtocol`, :class:`HybridProtocol`,
  :class:`ModifiedHybridProtocol`, :class:`OptimalCandidateProtocol`.
* :class:`ReplicatedFile` -- a managed replicated file with a committed log.
* :func:`make_protocol` / :data:`PROTOCOLS` -- name-based construction.
"""

from .base import ReplicaControlProtocol
from .decision import QuorumDecision, Rule, UpdateContext, UpdateOutcome
from .dynamic_linear import DynamicLinearProtocol
from .dynamic_voting import DynamicVotingProtocol
from .file import ReplicatedFile, WriteRecord
from .generalized import GeneralizedHybridProtocol
from .hybrid import HybridProtocol
from .metadata import ReplicaMetadata, current_sites, partition_summary
from .registry import PAPER_PROTOCOLS, PROTOCOLS, make_protocol, protocol_names
from .static_voting import (
    MajorityVotingProtocol,
    PrimaryCopyProtocol,
    PrimarySiteVotingProtocol,
    WeightedVotingProtocol,
)
from .transactions import MultiFileTransaction, TransactionResult
from .variants import ModifiedHybridProtocol, OptimalCandidateProtocol

__all__ = [
    "ReplicaControlProtocol",
    "ReplicaMetadata",
    "QuorumDecision",
    "Rule",
    "UpdateContext",
    "UpdateOutcome",
    "ReplicatedFile",
    "MultiFileTransaction",
    "TransactionResult",
    "WriteRecord",
    "current_sites",
    "partition_summary",
    "MajorityVotingProtocol",
    "WeightedVotingProtocol",
    "PrimarySiteVotingProtocol",
    "PrimaryCopyProtocol",
    "DynamicVotingProtocol",
    "DynamicLinearProtocol",
    "HybridProtocol",
    "GeneralizedHybridProtocol",
    "ModifiedHybridProtocol",
    "OptimalCandidateProtocol",
    "PROTOCOLS",
    "PAPER_PROTOCOLS",
    "make_protocol",
    "protocol_names",
]
