"""Reference explorer: restore every sibling by replaying from the root.

This is the depth-first walk ``repro check`` used before its transition
memo, kept as the oracle for :class:`repro.check.explorer.Explorer`.  It
takes every transition anew: before each sibling after the first it
replays the schedule prefix on the harness, then applies the action,
snapshots the child and evaluates the oracles on it.  DFS order, sleep
sets and the visit lists are the production ones, so both explorers must
return the same :class:`~repro.check.explorer.CheckResult` and the same
violating schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.check.actions import Action, independent
from repro.check.explorer import CheckResult
from repro.check.harness import CheckConfig, CheckHarness
from repro.check.oracles import check_oracles, default_oracle_names
from repro.check.state import ClusterSnapshot
from repro.errors import CheckError

__all__ = ["ReplayExplorer"]


@dataclass
class _Visit:
    """One exploration of a state: remaining budget and sleep set."""

    depth: int
    sleep: frozenset[Action]

    def covers(self, depth: int, sleep: frozenset[Action]) -> bool:
        """Whether this prior visit already explored at least as much."""
        return depth >= self.depth and sleep >= self.sleep


@dataclass
class ReplayExplorer:
    """The replay-per-sibling walk over a :class:`CheckConfig`."""

    config: CheckConfig
    depth: int
    oracles: tuple[str, ...] = field(default_factory=default_oracle_names)
    max_states: int | None = None

    def run(self) -> CheckResult:
        """Explore and return the (deterministic) result."""
        self._harness = CheckHarness(self.config)
        self._visited: dict[ClusterSnapshot, list[_Visit]] = {}
        self._result = CheckResult(config=self.config, depth=self.depth)
        self._dfs([], 0, frozenset(), None)
        self._result.states = len(self._visited)
        return self._result

    def _dfs(
        self,
        schedule: list[Action],
        depth: int,
        sleep: frozenset[Action],
        previous: ClusterSnapshot | None,
    ) -> bool:
        """Explore from the harness's current state; True aborts the walk."""
        result = self._result
        snapshot = self._harness.snapshot()
        violation = check_oracles(self.oracles, self._harness, snapshot, previous)
        if violation is not None:
            result.violation = violation
            result.schedule = tuple(schedule)
            return True
        visits = self._visited.get(snapshot)
        if visits is not None:
            if any(v.covers(depth, sleep) for v in visits):
                result.cache_pruned += 1
                return False
            visits[:] = [
                v for v in visits if not (depth <= v.depth and sleep <= v.sleep)
            ]
            visits.append(_Visit(depth, sleep))
        else:
            self._visited[snapshot] = [_Visit(depth, sleep)]
            if self.max_states is not None and len(self._visited) > self.max_states:
                result.truncated = True
                return True
        enabled = self._harness.enabled_actions()
        if not enabled:
            result.quiescent_states += 1
            return False
        if depth >= self.depth:
            result.frontier_cutoffs += 1
            return False
        explore = [a for a in enabled if a not in sleep]
        result.sleep_pruned += len(enabled) - len(explore)
        explored: list[Action] = []
        for position, action in enumerate(explore):
            if position > 0:
                self._harness.replay(schedule)
            child_sleep = frozenset(
                {b for b in sleep if independent(action, b)}
                | {b for b in explored if independent(action, b)}
            )
            if not self._harness.apply(action):
                raise CheckError(f"enabled action failed to apply: {action!r}")
            result.transitions += 1
            schedule.append(action)
            stop = self._dfs(schedule, depth + 1, child_sleep, snapshot)
            schedule.pop()
            if stop:
                return True
            explored.append(action)
        return False
