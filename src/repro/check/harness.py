"""Deterministic harness: one netsim cluster under schedule control.

The harness builds a :class:`~repro.netsim.cluster.ReplicaCluster` with the
two injection seams engaged:

* a **transport hook** -- messages never enter the event queue; they join
  an in-flight multiset (kept canonically sorted) and are delivered only
  when the schedule says so, via
  :meth:`~repro.netsim.network.MessageNetwork.deliver_now` (which applies
  the exact same loss rule as stochastic runs: endpoints must be up and
  mutually reachable *at delivery time*);
* a **controlled scheduler** -- protocol timers (lock timeout, vote
  window, catch-up window, termination probe) become armed-timer records
  that fire only as explicit schedule actions, modelling arbitrary
  timeout/latency races.  ``start`` timers (delay zero in the simulator)
  execute inline so a submission is one atomic step.

:meth:`snapshot` encodes the state as a :class:`ClusterSnapshot`, the
exact value the explorer deduplicates states by.  :meth:`replay` brings
the harness back to a state in one of two ways:

* from the **root**: rebuild the cluster from the initial configuration
  and re-apply a schedule, which is deterministic because every source of
  nondeterminism (delivery order, timer firing, failures, run
  identifiers) is a function of the schedule;
* from a **snapshot** (``start=``): rewrite the existing cluster in place
  to the state the snapshot encodes, then apply the schedule.  The
  callbacks netsim arms -- queued lock grants, timer actions -- are
  rebuilt as the bound methods and ``functools.partial`` objects netsim
  itself creates, and in-flight messages come from a table of every
  message this harness sent, keyed by
  :func:`~repro.check.state.message_key`.  Deep-copying the live cluster
  instead would cost more than replaying from the root.

Restore is exact only because the snapshot is: ``tests/check`` checks
that restoring a snapshot reproduces it and that restored and replayed
states have equal futures.  Snapshots carry no causal contexts, so a
causal harness restores only from the root.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, cast

from ..core.metadata import ReplicaMetadata
from ..core.registry import make_protocol, protocol_names
from ..errors import CheckError
from ..netsim.cluster import ReplicaCluster
from ..netsim.coordinator import ProtocolRun, RunKind, RunStatus, _Phase
from ..netsim.messages import CommitMessage, Message, reset_run_ids
from ..netsim.node import AppliedUpdate, _InDoubt
from ..types import SiteId, site_names
from .actions import (
    Action,
    CrashSite,
    CutLink,
    Deliver,
    FireTimer,
    HealLink,
    RecoverSite,
    SubmitOp,
)
from .state import ClusterSnapshot, message_key, metadata_key, value_key

__all__ = ["CheckConfig", "CheckHarness"]

#: Run ids drawn by recovery (Make_Current) runs start here; workload
#: updates use 1..len(updates).  Keeping the two ranges disjoint makes
#: fingerprints schedule-deterministic.
_RECOVERY_RUN_ID_BASE = 1000

#: Timer kind -> the ``ProtocolRun`` method netsim arms for it (the
#: ``termination-probe`` timer is a partial over ``Node._probe``).
_RUN_TIMERS = {
    "lock-timeout": "_lock_timed_out",
    "vote-window": "_votes_closed",
    "catch-up-window": "_catch_up_timed_out",
}


@dataclass(frozen=True)
class CheckConfig:
    """One checking problem: protocol, scale, workload, fault budgets."""

    protocol: str = "dynamic"
    n_sites: int = 3
    updates: int = 2
    crashes: int = 0
    recoveries: int = 0
    link_cuts: int = 0
    link_heals: int = 0
    disable_participants_guard: bool = False
    initial_value: str = "v0"

    def __post_init__(self) -> None:
        if self.protocol not in protocol_names():
            known = ", ".join(protocol_names())
            raise CheckError(
                f"unknown protocol {self.protocol!r} (known: {known})"
            )
        if self.n_sites < 2:
            raise CheckError(f"need at least 2 sites, got {self.n_sites}")
        if self.updates < 0 or min(
            self.crashes, self.recoveries, self.link_cuts, self.link_heals
        ) < 0:
            raise CheckError("workload and fault budgets must be nonnegative")

    @property
    def sites(self) -> tuple[SiteId, ...]:
        return site_names(self.n_sites)

    def workload(self) -> tuple[tuple[SiteId, str], ...]:
        """Update operations: op *i* writes ``u{i+1}`` at site ``i mod n``."""
        names = self.sites
        return tuple(
            (names[i % len(names)], f"u{i + 1}") for i in range(self.updates)
        )


class _TimerHandle:
    """Stand-in for :class:`~repro.sim.engine.EventHandle` for armed timers."""

    __slots__ = ("_harness", "_key", "cancelled")

    def __init__(self, harness: "CheckHarness", key: tuple[str, int, SiteId]) -> None:
        self._harness = harness
        self._key = key
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True
        self._harness._timers.pop(self._key, None)


class _InlineHandle:
    """Handle for ``start`` timers, which already ran inline."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


@dataclass
class _Pending:
    """One in-flight message with its canonical identity key."""

    source: SiteId
    destination: SiteId
    message: Message
    key: tuple = field(init=False)

    def __post_init__(self) -> None:
        self.key = message_key(self.source, self.destination, self.message)


class _FinishedRun(NamedTuple):
    """A restored terminal run: all the checker reads of one."""

    run_id: int
    status: RunStatus


def _requester(granted: Callable[[], None], site: SiteId) -> SiteId:
    """The site whose request queued a lock-grant callback at ``site``.

    A vote's grant is the ``functools.partial`` over
    ``Node._vote_lock_granted`` whose first argument is the coordinator;
    any other grant is the coordinator's own ``ProtocolRun._lock_granted``.
    """
    return granted.args[0] if isinstance(granted, functools.partial) else site


class CheckHarness:
    """A cluster plus schedule controls; applies actions atomically.

    ``causal=True`` turns on causal tracing in the underlying cluster so a
    replayed schedule leaves a full causal DAG in ``cluster.trace_log``
    (used by counterexample export -- model-checker output and telemetry
    share one trace format).  Tracing never affects snapshots: the ``ctx``
    stamped on messages is excluded from :func:`~repro.check.state.message_key`.
    """

    def __init__(self, config: CheckConfig, *, causal: bool = False) -> None:
        self.config = config
        self._causal = causal
        self._workload = config.workload()
        self._value_keys: dict[str, str] = {}
        self._actions: dict[tuple, Action] = {}
        # Decoding tables for restore.  Every value a cluster holds is the
        # initial value, a workload value, or None (a Make_Current run's).
        self._values = {
            value_key(value): value
            for value in (config.initial_value, None, *(v for _, v in self._workload))
        }
        self._metadata: dict[tuple, ReplicaMetadata] = {}
        self._sent: dict[tuple, _Pending] = {}
        self.reset()

    # ------------------------------------------------------------------ #
    # Construction / replay
    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        """Rebuild the initial configuration from scratch."""
        reset_run_ids(_RECOVERY_RUN_ID_BASE)
        self._pending: list[_Pending] = []
        self._timers: dict[tuple[str, int, SiteId], Callable[[], None]] = {}
        self._submitted: set[int] = set()
        self._crashes_left = self.config.crashes
        self._recoveries_left = self.config.recoveries
        self._cuts_left = self.config.link_cuts
        self._heals_left = self.config.link_heals
        protocol = make_protocol(self.config.protocol, self.config.sites)
        self.cluster = ReplicaCluster(
            protocol,
            initial_value=self.config.initial_value,
            transport=self._transport,
            scheduler=self._schedule,
            causal=self._causal,
        )
        self.cluster.unsafe_disable_participants_guard = (
            self.config.disable_participants_guard
        )

    def replay(
        self,
        schedule: list[Action] | tuple[Action, ...],
        *,
        start: ClusterSnapshot | None = None,
    ) -> bool:
        """Re-apply a schedule; True iff every step applied.

        The schedule starts from the initial configuration, or from the
        state ``start`` encodes when it is given (see :meth:`_restore`).
        """
        if start is None:
            self.reset()
        else:
            self._restore(start)
        for action in schedule:
            if not self.apply(action):
                return False
        return True

    def _restore(self, snapshot: ClusterSnapshot) -> None:
        """Rewrite the existing cluster in place to the state ``snapshot`` encodes.

        Network statistics are not part of the state and keep counting.
        """
        if self._causal:
            raise CheckError(
                "a causal harness cannot restore from a snapshot: "
                "snapshots carry no causal contexts"
            )
        cluster = self.cluster
        topology = cluster.topology
        for site, up in snapshot.sites_up:
            if topology.is_up(site) != up:
                (topology.repair_site if up else topology.fail_site)(site)
        for (a, b), up in snapshot.links_up:
            if topology.link_is_up(a, b) != up:
                (topology.repair_link if up else topology.fail_link)(a, b)
        metadata = self._decode_metadata
        runs: dict[int, ProtocolRun] = {}
        for run_id, site, kind, phase, votes, pending, value in snapshot.active_runs:
            run = ProtocolRun(cluster, site, RunKind(kind), self._values[value], run_id)
            run._phase = _Phase(phase)
            run._votes = {voter: metadata(md) for voter, md in votes}
            run._pending_metadata = None if pending is None else metadata(pending)
            runs[run_id] = run
        cluster._runs = runs
        # Nothing reads a terminal run again but its id and status.
        cluster._finished_runs = cast(
            "list[ProtocolRun]",
            [
                _FinishedRun(run_id, RunStatus(status))
                for run_id, status in snapshot.finished_runs
            ],
        )
        for record in snapshot.site_state:
            self._restore_node(record, runs)
        self._timers = {}
        for key in snapshot.pending_timers:
            self._arm(key, runs)
        try:
            self._pending = [self._sent[key] for key in snapshot.pending_messages]
        except KeyError as exc:
            raise CheckError(
                f"cannot restore in-flight message {exc.args[0]!r}: "
                "this harness never sent it"
            ) from None
        (
            self._crashes_left,
            self._recoveries_left,
            self._cuts_left,
            self._heals_left,
        ) = snapshot.budgets
        self._submitted = set(range(len(self._workload))).difference(
            snapshot.ops_remaining
        )
        # Recovery runs are the only ones that draw run ids from the counter.
        reset_run_ids(
            _RECOVERY_RUN_ID_BASE + self.config.recoveries - self._recoveries_left
        )

    def _restore_node(self, record: tuple, runs: dict[int, ProtocolRun]) -> None:
        """Rewrite one site's node from its snapshot record."""
        site, md, value, history, decisions, holder, waiting, in_doubt = record
        values, metadata = self._values, self._decode_metadata
        node = self.cluster.node(site)
        node.metadata = metadata(md)
        node.value = values[value]
        node.history = [
            AppliedUpdate(version, values[applied], run_id)
            for version, applied, run_id in history
        ]
        node.decision_log = {
            run_id: (
                CommitMessage(
                    run_id,
                    site,
                    metadata(commit_md),
                    values[commit_value],
                    frozenset(participants),
                )
                if committed
                else None
            )
            for run_id, committed, commit_md, commit_value, participants in decisions
        }
        node.locks._holder = holder
        waiters = node.locks._waiters
        waiters.clear()
        for run_id, requester in waiting:
            # The grant netsim queued: the coordinator's own run, or a vote.
            if requester == site:
                granted = runs[run_id]._lock_granted
            else:
                granted = functools.partial(
                    node._vote_lock_granted, requester, run_id, None
                )
            waiters.append((run_id, granted))
        node._in_doubt = {
            run_id: _InDoubt(coordinator) for run_id, coordinator in in_doubt
        }

    def _arm(self, key: tuple[str, int, SiteId], runs: dict[int, ProtocolRun]) -> None:
        """Re-arm one timer as the callable netsim arms, with its handle."""
        kind, run_id, site = key
        handle = _TimerHandle(self, key)
        if kind == "termination-probe":
            node = self.cluster.node(site)
            node._in_doubt[run_id].timer = handle
            self._timers[key] = functools.partial(node._probe, run_id)
        else:
            run = runs[run_id]
            run._timer = handle
            self._timers[key] = getattr(run, _RUN_TIMERS[kind])

    def _decode_metadata(self, key: tuple) -> ReplicaMetadata:
        """The metadata :func:`~repro.check.state.metadata_key` encoded as ``key``."""
        metadata = self._metadata.get(key)
        if metadata is None:
            metadata = self._metadata[key] = ReplicaMetadata(*key)
        return metadata

    # ------------------------------------------------------------------ #
    # Injection seams (called by the cluster)
    # ------------------------------------------------------------------ #

    def _transport(
        self, source: SiteId, destination: SiteId, message: Message
    ) -> None:
        pending = _Pending(source, destination, message)
        self._pending.append(pending)
        self._sent.setdefault(pending.key, pending)

    def _schedule(
        self,
        delay: float,
        action: Callable[[], None],
        *,
        kind: str,
        run_id: int | None = None,
        site: SiteId | None = None,
    ) -> Any:
        if kind == "start":
            # Submissions are atomic steps: the run starts (and takes its
            # local lock, possibly sending vote requests) inline.
            action()
            return _InlineHandle()
        if run_id is None or site is None:
            raise CheckError(f"timer kind {kind!r} needs run_id and site")
        key = (kind, run_id, site)
        if key in self._timers:
            raise CheckError(f"duplicate armed timer {key!r}")
        self._timers[key] = action
        return _TimerHandle(self, key)

    # ------------------------------------------------------------------ #
    # Enabled actions
    # ------------------------------------------------------------------ #

    def enabled_actions(self) -> list[Action]:
        """All actions applicable in the current state, in canonical order.

        An action is built once per harness: equal actions are one object.
        """
        topology = self.cluster.topology
        actions: list[Action] = []
        for index, (site, _value) in enumerate(self._workload):
            if index not in self._submitted and topology.is_up(site):
                actions.append(self._action(SubmitOp, index, site))
        deliveries = sorted({p.key for p in self._pending})
        actions.extend(
            self._action(Deliver, src, dst, mtype, run_id, payload)
            for (mtype, run_id, src, dst, payload) in deliveries
        )
        actions.extend(self._action(FireTimer, *key) for key in sorted(self._timers))
        if self._crashes_left > 0:
            actions.extend(
                self._action(CrashSite, s)
                for s in sorted(topology.sites)
                if topology.is_up(s)
            )
        if self._recoveries_left > 0:
            actions.extend(
                self._action(RecoverSite, s)
                for s in sorted(topology.sites)
                if not topology.is_up(s)
            )
        if self._cuts_left > 0:
            actions.extend(
                self._action(CutLink, a, b)
                for (a, b) in sorted(topology.links)
                if topology.link_is_up(a, b)
            )
        if self._heals_left > 0:
            actions.extend(
                self._action(HealLink, a, b)
                for (a, b) in sorted(topology.links)
                if not topology.link_is_up(a, b)
            )
        return actions

    def _action(self, kind: type, *fields: object) -> Action:
        """The harness's one ``kind(*fields)`` action object."""
        key = (kind, *fields)
        action = self._actions.get(key)
        if action is None:
            action = self._actions[key] = kind(*fields)
        return action

    # ------------------------------------------------------------------ #
    # Applying actions
    # ------------------------------------------------------------------ #

    def apply(self, action: Action) -> bool:
        """Apply one action; False (state unchanged) if it is not enabled."""
        topology = self.cluster.topology
        if isinstance(action, SubmitOp):
            workload = self._workload
            if (
                action.index in self._submitted
                or action.index >= len(workload)
                or workload[action.index][0] != action.site
                or not topology.is_up(action.site)
            ):
                return False
            site, value = workload[action.index]
            self._submitted.add(action.index)
            self.cluster.submit_update(site, value, run_id=action.index + 1)
            return True
        if isinstance(action, Deliver):
            key = (
                action.message_type,
                action.run_id,
                action.source,
                action.destination,
                action.payload,
            )
            for position, pending in enumerate(self._pending):
                if pending.key == key:
                    entry = self._pending.pop(position)
                    self.cluster.network.deliver_now(
                        entry.source, entry.destination, entry.message
                    )
                    return True
            return False
        if isinstance(action, FireTimer):
            fire = self._timers.pop((action.kind, action.run_id, action.site), None)
            if fire is None:
                return False
            fire()
            return True
        if isinstance(action, CrashSite):
            if self._crashes_left <= 0 or not topology.is_up(action.site):
                return False
            self._crashes_left -= 1
            self.cluster.fail_site(action.site)
            return True
        if isinstance(action, RecoverSite):
            if self._recoveries_left <= 0 or topology.is_up(action.site):
                return False
            self._recoveries_left -= 1
            self.cluster.repair_site(action.site, run_restart=True)
            return True
        if isinstance(action, CutLink):
            edge = (action.a, action.b)
            if (
                self._cuts_left <= 0
                or edge not in topology.links
                or not topology.link_is_up(action.a, action.b)
            ):
                return False
            self._cuts_left -= 1
            self.cluster.fail_link(action.a, action.b)
            return True
        if isinstance(action, HealLink):
            edge = (action.a, action.b)
            if (
                self._heals_left <= 0
                or edge not in topology.links
                or topology.link_is_up(action.a, action.b)
            ):
                return False
            self._heals_left -= 1
            self.cluster.repair_link(action.a, action.b)
            return True
        raise CheckError(f"unhandled action {action!r}")  # pragma: no cover

    # ------------------------------------------------------------------ #
    # Canonical snapshot
    # ------------------------------------------------------------------ #

    def snapshot(self) -> ClusterSnapshot:
        """Canonical, hashable encoding of the current state."""
        cluster = self.cluster
        topology = cluster.topology
        sites = sorted(topology.sites)
        sites_up = tuple((s, topology.is_up(s)) for s in sites)
        links_up = tuple(
            ((a, b), topology.link_is_up(a, b)) for (a, b) in sorted(topology.links)
        )
        site_state = []
        for s in sites:
            node = cluster.node(s)
            decisions = []
            for run_id in sorted(node.decision_log):
                commit = node.decision_log[run_id]
                if commit is None:
                    decisions.append((run_id, False, None, None, ()))
                else:
                    decisions.append(
                        (
                            run_id,
                            True,
                            metadata_key(commit.metadata),
                            self._value_key(commit.value),
                            tuple(sorted(commit.participants)),
                        )
                    )
            site_state.append(
                (
                    s,
                    metadata_key(node.metadata),
                    self._value_key(node.value),
                    tuple(
                        (a.version, self._value_key(a.value), a.run_id)
                        for a in node.history
                    ),
                    tuple(decisions),
                    node.locks.holder,
                    tuple(
                        (run_id, _requester(granted, s))
                        for run_id, granted in node.locks._waiters
                    ),
                    tuple(
                        (run_id, record.coordinator)
                        for run_id, record in sorted(node._in_doubt.items())
                    ),
                )
            )
        active_runs = []
        for run_id in sorted(cluster._runs):
            run = cluster._runs[run_id]
            active_runs.append(
                (
                    run.run_id,
                    run.site,
                    run.kind.value,
                    run._phase.value,
                    tuple(
                        (voter, metadata_key(md))
                        for voter, md in sorted(run._votes.items())
                    ),
                    metadata_key(run._pending_metadata),
                    self._value_key(run.value),
                )
            )
        finished = tuple(
            sorted((run.run_id, run.status.value) for run in cluster.finished_runs)
        )
        return ClusterSnapshot(
            sites_up=sites_up,
            links_up=links_up,
            site_state=tuple(site_state),
            active_runs=tuple(active_runs),
            finished_runs=finished,
            pending_messages=tuple(sorted(p.key for p in self._pending)),
            pending_timers=tuple(sorted(self._timers)),
            budgets=(
                self._crashes_left,
                self._recoveries_left,
                self._cuts_left,
                self._heals_left,
            ),
            ops_remaining=tuple(
                i
                for i in range(len(self._workload))
                if i not in self._submitted
            ),
        )

    def _value_key(self, value: object) -> str:
        """:func:`~repro.check.state.value_key`, one string per distinct key."""
        key = value_key(value)
        return self._value_keys.setdefault(key, key)
