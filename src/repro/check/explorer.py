"""Depth-bounded exhaustive exploration: sleep sets, state caching, a memo.

The explorer walks every schedule (sequence of
:mod:`~repro.check.actions`) up to a depth bound, depth-first and in
canonical action order, so state and transition counts are deterministic.
Two reductions keep the walk tractable without losing any reachable
violation within the bound:

* **Sleep sets** (Godefroid): after exploring action *a* from a state,
  the siblings explored later put *a* to sleep in their subtrees as long
  as it stays independent -- the commuted interleaving ``b;a`` reaches the
  same state as the already-explored ``a;b`` and is pruned.  Independence
  is the conservative relation of :func:`~repro.check.actions.independent`
  (local steps at different home sites).
* **State caching**: visited states are deduplicated by their canonical
  snapshot (:class:`~repro.check.state.ClusterSnapshot` -- an exact
  encoding, not a truncated digest).  Because a cached visit is only as
  good as the depth budget and sleep set it was explored with, each state
  stores the *set* of ``(depth, sleep)`` visits made; a new visit is
  pruned only if some prior visit had at least as much remaining depth
  **and** a sleep set no larger (explored at least as much).  Merging
  visits into a single pair would be unsound, so dominated pairs are kept
  pruned but incomparable ones accumulate.

Incomparable visits make the walk expand a state again, and the second
expansion takes transitions the first one already took.  So each distinct
state keeps one record, keyed by its snapshot: its visit list, its enabled
actions, and the record each action led to once taken.  A transition
taken before costs no harness work: its child snapshot is the record's
key, and its oracles, which read only the child and parent snapshots,
passed when it was first taken (a violation ends the walk).  The memo
assumes nothing the state cache does not: equal snapshots have equal
futures.  For the same reason a new transition into a known state runs
only the oracles that read the parent: the state oracles
(:data:`~repro.check.oracles.STATE_ORACLES`) passed when the state was
first reached.

The live harness moves only when a transition is taken for the first
time.  If it is still at the state the transition leaves, the action is
applied; otherwise the harness is first restored from that state's
snapshot (see :mod:`~repro.check.harness`).

The cyclic garbage collector is paused during the walk.  What the walk
allocates lives until the run ends, so each full collection would only
traverse a graph that keeps growing, and would find almost nothing to free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CheckError
from .actions import Action, independent
from .harness import CheckConfig, CheckHarness
from .oracles import STATE_ORACLES, Violation, check_oracles, default_oracle_names
from .state import ClusterSnapshot

__all__ = ["CheckResult", "Explorer"]


@dataclass
class CheckResult:
    """Outcome of one exploration: counts, bound status, any violation."""

    config: CheckConfig
    depth: int
    states: int = 0
    transitions: int = 0
    sleep_pruned: int = 0
    cache_pruned: int = 0
    frontier_cutoffs: int = 0
    quiescent_states: int = 0
    truncated: bool = False
    violation: Violation | None = None
    schedule: tuple[Action, ...] = ()

    @property
    def ok(self) -> bool:
        """True when no oracle reported a violation."""
        return self.violation is None and not self.truncated

    def to_dict(self) -> dict:
        """JSON-ready summary (stable key set)."""
        return {
            "protocol": self.config.protocol,
            "sites": self.config.n_sites,
            "depth": self.depth,
            "states": self.states,
            "transitions": self.transitions,
            "sleep_pruned": self.sleep_pruned,
            "cache_pruned": self.cache_pruned,
            "frontier_cutoffs": self.frontier_cutoffs,
            "quiescent_states": self.quiescent_states,
            "truncated": self.truncated,
            "violation": (
                None
                if self.violation is None
                else {
                    "oracle": self.violation.oracle,
                    "detail": self.violation.detail,
                }
            ),
            "schedule_length": len(self.schedule),
        }


@dataclass(slots=True)
class _Visit:
    """One exploration of a state: remaining budget and sleep set."""

    depth: int
    sleep: frozenset[Action]

    def covers(self, depth: int, sleep: frozenset[Action]) -> bool:
        """Whether this prior visit already explored at least as much."""
        return depth >= self.depth and sleep >= self.sleep


@dataclass(eq=False, slots=True)
class _State:
    """One distinct state: its visits, enabled actions and taken transitions.

    ``successors[i]`` is the record that ``enabled[i]`` leads to, once that
    transition has been taken.
    """

    snapshot: ClusterSnapshot
    visits: list[_Visit] = field(default_factory=list)
    enabled: tuple[Action, ...] = ()
    successors: list[_State | None] = field(default_factory=list)


@dataclass
class Explorer:
    """One depth-bounded exhaustive run over a :class:`CheckConfig`."""

    config: CheckConfig
    depth: int
    oracles: tuple[str, ...] = field(default_factory=default_oracle_names)
    max_states: int | None = None

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise CheckError(f"depth must be nonnegative, got {self.depth}")
        if self.max_states is not None and self.max_states < 1:
            raise CheckError(f"max-states must be positive, got {self.max_states}")

    def run(self) -> CheckResult:
        """Explore and return the (deterministic) result."""
        import gc

        self._harness = CheckHarness(self.config)
        self._states: dict[ClusterSnapshot, _State] = {}
        self._schedule: list[Action] = []
        self._result = CheckResult(config=self.config, depth=self.depth)
        # What a new transition into a known state must still check.
        self._transition_oracles = tuple(
            name for name in self.oracles if name not in STATE_ORACLES
        )
        collecting = gc.isenabled()
        gc.disable()
        try:
            # The record of the state the harness is in.
            self._at = root = self._arrive(None)
            if root is not None and self._visit(root, 0, frozenset()):
                self._expand(root, 0, frozenset())
        finally:
            if collecting:
                gc.enable()
        self._result.states = len(self._states)
        return self._result

    # ------------------------------------------------------------------ #
    # DFS
    # ------------------------------------------------------------------ #

    def _expand(self, state: _State, depth: int, sleep: frozenset[Action]) -> bool:
        """Explore the successors of one visit; True aborts the walk."""
        result = self._result
        enabled = state.enabled
        if not enabled:
            result.quiescent_states += 1
            return False
        if depth >= self.depth:
            result.frontier_cutoffs += 1
            return False
        explore = [
            (index, action)
            for index, action in enumerate(enabled)
            if action not in sleep
        ]
        result.sleep_pruned += len(enabled) - len(explore)
        schedule = self._schedule
        explored: list[Action] = []
        for index, action in explore:
            child_sleep = frozenset(
                {b for b in sleep if independent(action, b)}
                | {b for b in explored if independent(action, b)}
            )
            result.transitions += 1
            schedule.append(action)
            child = state.successors[index]
            if child is None:
                child = self._take(state, index)
            stop = child is None or (
                self._visit(child, depth + 1, child_sleep)
                and self._expand(child, depth + 1, child_sleep)
            )
            schedule.pop()
            if stop:
                return True
            explored.append(action)
        return False

    def _take(self, state: _State, index: int) -> _State | None:
        """Apply a transition never taken before; None aborts the walk."""
        harness = self._harness
        action = state.enabled[index]
        if self._at is state:
            applied = harness.apply(action)
        else:
            applied = harness.replay((action,), start=state.snapshot)
        if not applied:  # pragma: no cover - invariant
            raise CheckError(f"enabled action failed to apply: {action!r}")
        child = self._at = self._arrive(state.snapshot)
        state.successors[index] = child
        return child

    def _arrive(self, previous: ClusterSnapshot | None) -> _State | None:
        """Check the harness's state and find its record; None aborts."""
        harness = self._harness
        result = self._result
        snapshot = harness.snapshot()
        state = self._states.get(snapshot)
        # A known state passed the state oracles when it was first reached.
        oracles = self.oracles if state is None else self._transition_oracles
        violation = check_oracles(oracles, harness, snapshot, previous)
        if violation is not None:
            result.violation = violation
            result.schedule = tuple(self._schedule)
            return None
        if state is None:
            state = self._states[snapshot] = _State(snapshot)
            if self.max_states is not None and len(self._states) > self.max_states:
                result.truncated = True
                return None
            state.enabled = tuple(harness.enabled_actions())
            state.successors = [None] * len(state.enabled)
        return state

    def _visit(self, state: _State, depth: int, sleep: frozenset[Action]) -> bool:
        """Record a visit; False (cache-pruned) if an earlier one covers it."""
        visits = state.visits
        if any(v.covers(depth, sleep) for v in visits):
            self._result.cache_pruned += 1
            return False
        visits[:] = [v for v in visits if not (depth <= v.depth and sleep <= v.sleep)]
        visits.append(_Visit(depth, sleep))
        return True
