"""A site process: persistent copy, volatile locks, subordinate behaviour.

Each node stores the file copy and its (VN, SC, DS) metadata durably --
they survive failures -- together with a durable *decision log* recording
the outcome of every protocol run the node coordinated (the presumed-abort
rule needs COMMIT decisions to be durable before commit messages leave the
node).  The lock table and any in-flight subordinate state are volatile
and are wiped by a failure, exactly the fail-stop semantics of Section II.

As a subordinate (steps iii and viii of the protocol), a node:

* answers a VOTE_REQUEST by queueing for its local lock and, once granted,
  replying with its metadata -- from that moment it is *in doubt* and holds
  the lock;
* applies a COMMIT (installing metadata, value, and implicitly any missed
  updates -- state transfer) or an ABORT, releasing the lock;
* while in doubt, periodically runs the termination protocol: ask the
  coordinator for the outcome; an unknown run is answered "abort"
  (presumed abort), and a coordinator that is down simply leaves the
  subordinate blocked until repair -- the honest blocking behaviour of
  two-phase commit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..core.metadata import ReplicaMetadata
from ..types import SiteId
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
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.causal import CausalContext
    from .cluster import ReplicaCluster

__all__ = ["AppliedUpdate", "Node"]


@dataclass(frozen=True, slots=True)
class AppliedUpdate:
    """One version applied at a site (the site's durable history)."""

    version: int
    value: Any
    run_id: int


@dataclass
class _InDoubt:
    """Volatile record of a run this node voted for."""

    coordinator: SiteId
    timer: Any = None  # EventHandle of the next termination-protocol probe


class Node:
    """One site of the replicated system."""

    def __init__(
        self, site: SiteId, cluster: "ReplicaCluster", initial_value: Any
    ) -> None:
        self.site = site
        self._cluster = cluster
        # Durable state.
        self.metadata: ReplicaMetadata = cluster.protocol.initial_metadata()
        self.value: Any = initial_value
        self.history: list[AppliedUpdate] = [AppliedUpdate(0, initial_value, 0)]
        self.decision_log: dict[int, CommitMessage | None] = {}
        # Volatile state.
        self.locks = LockManager(
            site,
            wait_counter=(
                cluster.metrics.counter("netsim.lock.waits")
                if cluster.metrics.enabled
                else None
            ),
        )
        self._in_doubt: dict[int, _InDoubt] = {}

    # ------------------------------------------------------------------ #
    # Failure / recovery hooks (called by the cluster)
    # ------------------------------------------------------------------ #

    def on_failure(self) -> None:
        """Wipe volatile state; durable state survives."""
        self.locks.clear()
        for record in self._in_doubt.values():
            if record.timer is not None:
                record.timer.cancel()
        self._in_doubt.clear()

    # ------------------------------------------------------------------ #
    # Durable mutation
    # ------------------------------------------------------------------ #

    def apply_commit(self, run_id: int, metadata: ReplicaMetadata, value: Any) -> None:
        """Install a committed version if it is newer than the local copy.

        Late or duplicated commit deliveries (version not newer) are
        ignored; the committed history records each applied version once.
        """
        if metadata.version > self.metadata.version:
            self.metadata = metadata
            self.value = value
            self.history.append(AppliedUpdate(metadata.version, value, run_id))
        elif metadata.version == self.metadata.version:
            self.metadata = metadata  # same version: metadata refresh only

    def log_decision(self, run_id: int, commit: CommitMessage | None) -> None:
        """Durably record a coordinated run's outcome (None = abort)."""
        self.decision_log[run_id] = commit

    # ------------------------------------------------------------------ #
    # Message dispatch
    # ------------------------------------------------------------------ #

    def receive(self, sender: SiteId, message: Message) -> None:
        """Entry point wired to the network."""
        if isinstance(message, VoteRequest):
            self._on_vote_request(sender, message)
        elif isinstance(message, CommitMessage):
            self._on_commit(message)
        elif isinstance(message, AbortMessage):
            self._on_abort(message)
        elif isinstance(message, CatchUpRequest):
            self._on_catch_up_request(sender, message)
        elif isinstance(message, DecisionRequest):
            self._on_decision_request(sender, message)
        elif isinstance(message, DecisionReply):
            self._on_decision_reply(message)
        elif isinstance(message, (VoteReply, CatchUpReply)):
            self._cluster.deliver_to_coordinator(self.site, sender, message)
        else:  # pragma: no cover - exhaustive over the message module
            raise TypeError(f"unhandled message {type(message).__name__}")

    # ------------------------------------------------------------------ #
    # Subordinate role
    # ------------------------------------------------------------------ #

    def _on_vote_request(self, sender: SiteId, message: VoteRequest) -> None:
        # A bound partial (not a closure) so deterministic drivers can
        # inspect and replay queued lock-grant callbacks.  The current
        # causal context (the VoteRequest delivery) is captured now: by
        # the time a queued grant fires, the tracer's current context is
        # whatever released the lock, which is a separate causal edge.
        self.locks.request(
            message.run_id,
            functools.partial(
                self._vote_lock_granted,
                sender,
                message.run_id,
                self._cluster.causal.current,
            ),
        )

    def _vote_lock_granted(
        self,
        sender: SiteId,
        run_id: int,
        request_ctx: "CausalContext | None" = None,
    ) -> None:
        """Step iii: the local lock is ours -- reply with metadata, in doubt."""
        causal = self._cluster.causal
        ctx = None
        if causal.enabled:
            ctx = causal.emit(
                "vote-lock-granted",
                self._cluster.simulator.now,
                parents=(request_ctx, causal.current),
                site=self.site,
                run_id=run_id,
                coordinator=sender,
                phase="vote",
            )
        self._in_doubt[run_id] = _InDoubt(coordinator=sender)
        with causal.scope(ctx):
            self._schedule_termination_probe(run_id)
            self._cluster.network.send(
                self.site, sender, VoteReply(run_id, self.site, self.metadata)
            )

    def _on_commit(self, message: CommitMessage) -> None:
        assert message.metadata is not None
        self._trace_install(message.run_id, message.metadata, message.participants)
        self.apply_commit(message.run_id, message.metadata, message.value)
        self._settle(message.run_id)

    def _trace_install(
        self,
        run_id: int,
        metadata: ReplicaMetadata,
        participants: frozenset[SiteId],
    ) -> None:
        """Emit an ``install`` event if this apply will take effect.

        The event's ``participants`` field is the deciding partition *P*;
        the happens-before catalog asserts the installing site is a
        member (the PR-1 fork bug is exactly this event firing outside
        *P* via a DecisionReply).
        """
        causal = self._cluster.causal
        if causal.enabled and metadata.version > self.metadata.version:
            causal.emit(
                "install",
                self._cluster.simulator.now,
                parents=(causal.current,),
                site=self.site,
                run_id=run_id,
                version=metadata.version,
                participants=sorted(participants),
                phase="decision",
            )

    def _on_abort(self, message: AbortMessage) -> None:
        self._settle(message.run_id)

    def _settle(self, run_id: int) -> None:
        """Release the lock and stop the termination probe for a run."""
        record = self._in_doubt.pop(run_id, None)
        if record is not None and record.timer is not None:
            record.timer.cancel()
        self.locks.release_if_involved(run_id)

    def _on_catch_up_request(self, sender: SiteId, message: CatchUpRequest) -> None:
        self._cluster.network.send(
            self.site,
            sender,
            CatchUpReply(message.run_id, self.site, self.metadata, self.value),
        )

    # ------------------------------------------------------------------ #
    # Termination protocol
    # ------------------------------------------------------------------ #

    def _schedule_termination_probe(self, run_id: int) -> None:
        record = self._in_doubt.get(run_id)
        if record is None:
            return
        record.timer = self._cluster.schedule_timer(
            self._cluster.termination_timeout,
            functools.partial(self._probe, run_id),
            kind="termination-probe",
            run_id=run_id,
            site=self.site,
        )

    def _probe(self, run_id: int) -> None:
        record = self._in_doubt.get(run_id)
        if record is None:
            return
        if self._cluster.topology.is_up(self.site):
            if self._cluster.metrics.enabled:
                self._cluster.metrics.counter("netsim.termination.probes").inc()
            self._cluster.network.send(
                self.site,
                record.coordinator,
                DecisionRequest(run_id, self.site),
            )
        self._schedule_termination_probe(run_id)

    def _on_decision_request(self, sender: SiteId, message: DecisionRequest) -> None:
        run_id = message.run_id
        if self._cluster.is_run_active(run_id):
            return  # still deciding; the subordinate will ask again
        commit = self.decision_log.get(run_id)
        if commit is not None:
            reply = DecisionReply(
                run_id,
                self.site,
                True,
                commit.metadata,
                commit.value,
                commit.participants,
            )
        else:
            reply = DecisionReply(run_id, self.site, False)
        self._cluster.network.send(self.site, sender, reply)

    def _on_decision_reply(self, message: DecisionReply) -> None:
        if message.run_id not in self._in_doubt:
            return
        in_partition = (
            self.site in message.participants
            or self._cluster.unsafe_disable_participants_guard
        )
        if message.committed and in_partition:
            # Only members of the update's partition P may install the
            # state: the committed metadata's SC counts exactly card(P),
            # and Theorem 1's mutual exclusion needs the current copies to
            # be exactly P.  A site whose vote missed the window stays
            # stale until an update it participates in catches it up.
            assert message.metadata is not None
            self._trace_install(
                message.run_id, message.metadata, message.participants
            )
            self.apply_commit(message.run_id, message.metadata, message.value)
        self._settle(message.run_id)
