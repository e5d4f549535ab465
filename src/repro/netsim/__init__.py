"""Message-level simulation of the full Section V protocol.

* :class:`ReplicaCluster` -- nodes + network + failures + auditing.
* :class:`ProtocolRun` / :class:`RunKind` / :class:`RunStatus` -- one
  three-phase execution (vote, catch-up, commit) and its lifecycle.
* :class:`Node` -- persistent copy, volatile locks, subordinate role,
  presumed-abort termination protocol.
* :class:`LockManager`, :class:`MessageNetwork`, and the message types.
"""

from ..obs.trace import TraceEvent, TraceLog
from .cluster import ReplicaCluster
from .coordinator import ProtocolRun, RunKind, RunStatus
from .lockmgr import LockManager
from .messages import (
    AbortMessage,
    CatchUpReply,
    CatchUpRequest,
    CommitMessage,
    DecisionReply,
    DecisionRequest,
    Message,
    VoteReply,
    VoteRequest,
    next_run_id,
    reset_run_ids,
)
from .network import MessageNetwork
from .node import AppliedUpdate, Node
from .stochastic import ClusterModelDriver, ProbeStatistics

__all__ = [
    "ReplicaCluster",
    "ProtocolRun",
    "RunKind",
    "RunStatus",
    "LockManager",
    "MessageNetwork",
    "Node",
    "ClusterModelDriver",
    "ProbeStatistics",
    "TraceEvent",
    "TraceLog",
    "AppliedUpdate",
    "Message",
    "VoteRequest",
    "VoteReply",
    "CommitMessage",
    "AbortMessage",
    "CatchUpRequest",
    "CatchUpReply",
    "DecisionRequest",
    "DecisionReply",
    "next_run_id",
    "reset_run_ids",
]
