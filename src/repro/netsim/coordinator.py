"""The coordinator state machine: Section V-B's three-phase protocol.

One :class:`ProtocolRun` drives a single update (or read, or Make_Current
restart) from its coordinating site:

1. **lock** -- queue for the local lock (with a timeout that doubles as
   the deadlock breaker the paper delegates to standard techniques);
2. **vote** -- send VOTE_REQUEST everywhere, collect replies until the
   voting window closes, then evaluate ``Is_Distinguished`` over the
   responding partition;
3. **catch-up** -- if the coordinator's copy is stale, fetch the current
   state from a member of *I*;
4. **commit** -- durably log the decision, apply locally, send COMMIT (or
   ABORT) to every subordinate, release the local lock.

Every transition is driven by the discrete-event engine; failures at any
point are handled by timeouts here and by the presumed-abort termination
protocol in :mod:`repro.netsim.node`.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any

from ..core.decision import QuorumDecision
from ..core.metadata import ReplicaMetadata
from ..errors import SimulationError
from ..types import SiteId
from .messages import (
    AbortMessage,
    CatchUpReply,
    CatchUpRequest,
    CommitMessage,
    Message,
    VoteReply,
    VoteRequest,
    next_run_id,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.causal import CausalContext
    from .cluster import ReplicaCluster

__all__ = ["RunKind", "RunStatus", "ProtocolRun"]


class RunKind(enum.Enum):
    """What the run does on success."""

    UPDATE = "update"
    READ = "read"
    MAKE_CURRENT = "make-current"


class RunStatus(enum.Enum):
    """Lifecycle of a protocol run."""

    PENDING = "pending"
    COMMITTED = "committed"
    COMPLETED = "completed"  # successful read
    DENIED = "denied"        # partition not distinguished
    TIMED_OUT = "timed-out"  # lock or catch-up window expired
    FAILED = "failed"        # coordinator site failed mid-run


class _Phase(enum.Enum):
    START = "start"
    LOCKING = "locking"
    VOTING = "voting"
    CATCH_UP = "catch-up"
    DONE = "done"


class ProtocolRun:
    """One three-phase protocol execution, coordinated at ``site``."""

    def __init__(
        self,
        cluster: "ReplicaCluster",
        site: SiteId,
        kind: RunKind,
        value: Any = None,
        run_id: int | None = None,
    ) -> None:
        self.run_id = next_run_id() if run_id is None else run_id
        self.site = site
        self.kind = kind
        self.value = value
        self.status = RunStatus.PENDING
        self.decision: QuorumDecision | None = None
        self.result: Any = None
        self.reason: str = ""
        self._cluster = cluster
        self._phase = _Phase.START
        self._votes: dict[SiteId, ReplicaMetadata] = {}
        self._timer = None
        self._pending_metadata: ReplicaMetadata | None = None
        self.submitted_at: float = cluster.simulator.now
        self.finished_at: float | None = None
        # Causal tracing: the run's latest own event (starts as the root
        # "submit" context minted by the cluster) and each voter's "vote"
        # event, joined into the votes-closed decision point.
        self.ctx: "CausalContext | None" = None
        self._vote_ctxs: dict[SiteId, "CausalContext"] = {}

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    @property
    def finished(self) -> bool:
        """True once a terminal status is reached."""
        return self.status is not RunStatus.PENDING

    @property
    def participants(self) -> frozenset[SiteId]:
        """Coordinator plus the subordinates that voted (the set *P*)."""
        return frozenset(self._votes) | {self.site}

    def describe(self) -> str:
        """One-line summary for traces."""
        return (
            f"run {self.run_id} [{self.kind.value}] at {self.site}: "
            f"{self.status.value}"
            + (f" ({self.reason})" if self.reason else "")
        )

    # ------------------------------------------------------------------ #
    # Phase 0: local lock
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Begin the run (step i: LOCK_REQUEST to the local manager)."""
        if self.finished:
            # The coordinator failed between submission and the scheduled
            # start; the run was already marked FAILED.
            return
        if self._phase is not _Phase.START:
            raise SimulationError(f"run {self.run_id} already started")
        node = self._cluster.node(self.site)
        if not self._cluster.topology.is_up(self.site):
            self._finish(RunStatus.FAILED, "coordinator site is down")
            return
        self._phase = _Phase.LOCKING
        self._timer = self._cluster.schedule_timer(
            self._cluster.lock_timeout,
            self._lock_timed_out,
            kind="lock-timeout",
            run_id=self.run_id,
            site=self.site,
        )
        node.locks.request(self.run_id, self._lock_granted)

    def _lock_timed_out(self) -> None:
        if self._phase is not _Phase.LOCKING:
            return
        self._cluster.node(self.site).locks.release_if_involved(self.run_id)
        self._finish(RunStatus.TIMED_OUT, "local lock not granted in time")

    def _lock_granted(self) -> None:
        if self.finished:  # timed out while queued; withdraw handled there
            return
        self._cancel_timer()
        self._phase = _Phase.VOTING
        causal = self._cluster.causal
        if causal.enabled:
            # self.ctx is the run's root; the current context adds the
            # cross-trace lock-handoff edge when the grant was deferred.
            self.ctx = causal.emit(
                "lock-granted",
                self._cluster.simulator.now,
                parents=(self.ctx, causal.current),
                site=self.site,
                run_id=self.run_id,
                phase="lock",
            )
        with causal.scope(self.ctx):
            network = self._cluster.network
            subordinates = sorted(self._cluster.topology.sites - {self.site})
            if self._cluster.metrics.enabled:
                self._cluster.metrics.counter("netsim.votes.requested").inc(
                    len(subordinates)
                )
            for other in subordinates:
                network.send(
                    self.site, other, VoteRequest(self.run_id, self.site)
                )
            self._timer = self._cluster.schedule_timer(
                self._cluster.vote_window,
                self._votes_closed,
                kind="vote-window",
                run_id=self.run_id,
                site=self.site,
            )

    # ------------------------------------------------------------------ #
    # Phase 1: voting
    # ------------------------------------------------------------------ #

    def on_reply(self, sender: SiteId, message: Message) -> None:
        """Route a VoteReply or CatchUpReply delivered to the coordinator."""
        if isinstance(message, VoteReply):
            if self._phase is _Phase.VOTING:
                self._votes[sender] = message.metadata
                if self._cluster.metrics.enabled:
                    self._cluster.metrics.counter("netsim.votes.replies").inc()
                causal = self._cluster.causal
                if causal.enabled:
                    self._vote_ctxs[sender] = causal.emit(
                        "vote",
                        self._cluster.simulator.now,
                        parents=(causal.current,),
                        site=self.site,
                        run_id=self.run_id,
                        voter=sender,
                        phase="vote",
                    )
        elif isinstance(message, CatchUpReply):
            self._on_catch_up_reply(message)

    def _votes_closed(self) -> None:
        if self._phase is not _Phase.VOTING:
            return
        causal = self._cluster.causal
        if causal.enabled:
            # The join point: the decision causally follows every vote
            # that was counted, so a commit can never precede its quorum.
            self.ctx = causal.emit(
                "votes-closed",
                self._cluster.simulator.now,
                parents=(
                    self.ctx,
                    causal.current,
                    *(self._vote_ctxs[s] for s in sorted(self._vote_ctxs)),
                ),
                site=self.site,
                run_id=self.run_id,
                votes=len(self._votes),
                phase="vote",
            )
        with causal.scope(self.ctx):
            self._decide()

    def _decide(self) -> None:
        node = self._cluster.node(self.site)
        copies = dict(self._votes)
        copies[self.site] = node.metadata
        partition = frozenset(copies)
        protocol = self._cluster.protocol
        if self.kind is RunKind.READ:
            # Footnote 5 semantics by default; protocols with a separate
            # Gifford read quorum answer through read_decision.
            decision = protocol.read_decision(partition, copies)
            self.decision = decision
            if not decision.granted:
                self._abort_everywhere(RunStatus.DENIED, decision.explain())
                return
            if self.site in decision.current:
                self.result = node.value
                self._abort_everywhere(RunStatus.COMPLETED, "read served locally")
            else:
                self._request_catch_up(decision.current)
            return
        outcome = protocol.attempt_update(partition, copies)
        self.decision = outcome.decision
        if not outcome.accepted:
            self._abort_everywhere(RunStatus.DENIED, outcome.decision.explain())
            return
        assert outcome.metadata is not None
        self._pending_metadata = outcome.metadata
        if self.site in outcome.decision.current:
            payload = node.value if self.kind is RunKind.MAKE_CURRENT else self.value
            self._commit(payload)
        else:
            self._request_catch_up(outcome.decision.current)

    # ------------------------------------------------------------------ #
    # Phase 2: catch-up
    # ------------------------------------------------------------------ #

    def _request_catch_up(self, current: frozenset[SiteId]) -> None:
        donors = sorted(current - {self.site})
        if not donors:  # the coordinator itself is the only current copy
            self._commit(self.value)
            return
        self._phase = _Phase.CATCH_UP
        self._cluster.network.send(
            self.site, donors[0], CatchUpRequest(self.run_id, self.site)
        )
        self._timer = self._cluster.schedule_timer(
            self._cluster.catch_up_window,
            self._catch_up_timed_out,
            kind="catch-up-window",
            run_id=self.run_id,
            site=self.site,
        )

    def _catch_up_timed_out(self) -> None:
        if self._phase is not _Phase.CATCH_UP:
            return
        self._abort_everywhere(RunStatus.TIMED_OUT, "catch-up reply lost")

    def _on_catch_up_reply(self, message: CatchUpReply) -> None:
        if self._phase is not _Phase.CATCH_UP:
            return
        self._cancel_timer()
        if self.kind is RunKind.READ:
            self.result = message.value
            self._abort_everywhere(RunStatus.COMPLETED, "read served by catch-up")
            return
        payload = (
            message.value if self.kind is RunKind.MAKE_CURRENT else self.value
        )
        self._commit(payload)

    # ------------------------------------------------------------------ #
    # Phase 3: decision
    # ------------------------------------------------------------------ #

    def _commit(self, payload: Any) -> None:
        assert self._pending_metadata is not None
        node = self._cluster.node(self.site)
        commit = CommitMessage(
            self.run_id,
            self.site,
            self._pending_metadata,
            payload,
            self.participants,
        )
        causal = self._cluster.causal
        if causal.enabled:
            now = self._cluster.simulator.now
            self.ctx = causal.emit(
                "commit",
                now,
                parents=(self.ctx, causal.current),
                site=self.site,
                run_id=self.run_id,
                version=self._pending_metadata.version,
                participants=sorted(self.participants),
                phase="decision",
            )
            if self._pending_metadata.version > node.metadata.version:
                causal.emit(
                    "install",
                    now,
                    parents=(self.ctx,),
                    site=self.site,
                    run_id=self.run_id,
                    version=self._pending_metadata.version,
                    participants=sorted(self.participants),
                    phase="decision",
                )
        with causal.scope(self.ctx):
            # Durable decision first (presumed abort), then local apply,
            # then the commit messages -- all at one instant of simulated
            # time, matching the atomic commit point of the real protocol.
            node.log_decision(self.run_id, commit)
            node.apply_commit(self.run_id, self._pending_metadata, payload)
            for subordinate in sorted(self._votes):
                self._cluster.network.send(self.site, subordinate, commit)
            node.locks.release_if_involved(self.run_id)
            self.result = payload
            self._finish(RunStatus.COMMITTED, "")

    def _abort_everywhere(self, status: RunStatus, reason: str) -> None:
        node = self._cluster.node(self.site)
        causal = self._cluster.causal
        if causal.enabled:
            self.ctx = causal.emit(
                "abort",
                self._cluster.simulator.now,
                parents=(self.ctx, causal.current),
                site=self.site,
                run_id=self.run_id,
                status=status.value,
                reason=reason,
                phase="decision",
            )
        with causal.scope(self.ctx):
            node.log_decision(self.run_id, None)
            if self._cluster.topology.is_up(self.site):
                for subordinate in sorted(self._votes):
                    self._cluster.network.send(
                        self.site, subordinate, AbortMessage(self.run_id, self.site)
                    )
            node.locks.release_if_involved(self.run_id)
            self._finish(status, reason)

    # ------------------------------------------------------------------ #
    # Failure handling / bookkeeping
    # ------------------------------------------------------------------ #

    def on_coordinator_failure(self) -> None:
        """The coordinating site failed mid-run (volatile state is gone)."""
        if not self.finished:
            self._finish(RunStatus.FAILED, "coordinator failed")

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    @property
    def latency(self) -> float | None:
        """Submission-to-termination time; None while pending."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def _finish(self, status: RunStatus, reason: str) -> None:
        self._cancel_timer()
        self._phase = _Phase.DONE
        self.status = status
        self.reason = reason
        self.finished_at = self._cluster.simulator.now
        causal = self._cluster.causal
        if causal.enabled:
            causal.emit(
                "finish",
                self.finished_at,
                parents=(self.ctx, causal.current),
                site=self.site,
                run_id=self.run_id,
                status=status.value,
                reason=reason,
                latency=self.latency,
                phase="decision",
            )
        self._cluster.run_finished(self)
