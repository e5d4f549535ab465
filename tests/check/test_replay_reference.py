"""The memoized explorer against the replay-per-sibling reference.

The production :class:`~repro.check.explorer.Explorer` skips transitions
it has already taken, replays only when it must apply an action, and runs
the state oracles once per distinct state.  The reference
(:mod:`tests.check.replay_reference`) takes every transition anew and
runs every oracle on each.  Both walk the same DFS with the same sleep
sets and visit lists, so they must agree on every
:class:`~repro.check.explorer.CheckResult` field and on the violating
schedule, clean or not.
"""

from collections import Counter

import pytest

from repro.check import CheckConfig, Explorer, Violation
from repro.check.oracles import ORACLES, STATE_ORACLES, default_oracle_names
from repro.check.runner import QUICK_DEPTH, quick_config
from repro.core.registry import protocol_names

from .replay_reference import ReplayExplorer

#: One crash and one recovery: the budget that restores down sites and
#: Make_Current runs from snapshots.
CRASH_RECOVERY = CheckConfig(
    protocol="hybrid", n_sites=3, updates=1, crashes=1, recoveries=1
)


def assert_same_walk(config, depth, **kwargs):
    memoized = Explorer(config=config, depth=depth, **kwargs).run()
    reference = ReplayExplorer(config=config, depth=depth, **kwargs).run()
    assert memoized.to_dict() == reference.to_dict()
    assert memoized.schedule == reference.schedule
    return memoized


@pytest.mark.parametrize("protocol", protocol_names())
def test_quick_config_at_depth_6(protocol):
    result = assert_same_walk(quick_config(protocol), 6)
    assert result.ok


@pytest.mark.parametrize(
    ("protocol", "budgets"),
    [
        ("hybrid", {"crashes": 1, "recoveries": 1}),
        ("dynamic", {"link_cuts": 1, "link_heals": 1}),
        ("dynamic-linear", {"crashes": 1, "link_cuts": 1}),
    ],
)
def test_fault_budgets_at_depth_7(protocol, budgets):
    config = CheckConfig(protocol=protocol, n_sites=3, updates=1, **budgets)
    result = assert_same_walk(config, 7)
    assert result.ok
    assert result.cache_pruned > 0


def test_fork_injection_at_quick_depth():
    config = quick_config("dynamic", inject_fork_bug=True)
    result = assert_same_walk(config, QUICK_DEPTH)
    assert result.violation is not None
    assert result.violation.oracle == "participants-only"


def test_truncation_stops_both_at_the_same_state():
    result = assert_same_walk(quick_config("hybrid"), QUICK_DEPTH, max_states=300)
    assert result.truncated


# ---------------------------------------------------------------------- #
# State oracles once per state, transition oracles once per new transition
# ---------------------------------------------------------------------- #


def test_the_state_set_names_catalog_oracles():
    assert STATE_ORACLES < set(ORACLES)
    assert set(ORACLES) - STATE_ORACLES == {"vn-monotone", "durable-chain"}


@pytest.mark.parametrize("name", default_oracle_names())
@pytest.mark.parametrize(
    ("config", "depth"),
    [(quick_config("hybrid"), 6), (CRASH_RECOVERY, 7)],
    ids=["quick", "crash-recovery"],
)
def test_each_oracle_alone(config, depth, name):
    result = assert_same_walk(config, depth, oracles=(name,))
    assert result.violation is None or result.violation.oracle == name


def _recorded_arrivals(monkeypatch, config, depth):
    """Every (parent, child) snapshot pair the explorer checks, in order."""
    arrivals = []

    def record(harness, snapshot, previous):
        arrivals.append((previous, snapshot))
        return None

    monkeypatch.setitem(ORACLES, "record", record)
    Explorer(config=config, depth=depth, oracles=("record",)).run()
    return arrivals


def test_a_transition_violation_into_a_known_state(monkeypatch):
    # The first edge that enters an already recorded state from a new
    # parent: only a transition oracle can see it, on a state whose state
    # oracles already passed.
    config, depth = quick_config("hybrid"), 6
    catalog = default_oracle_names()
    pairs, children = set(), set()
    for edge in _recorded_arrivals(monkeypatch, config, depth):
        if edge not in pairs and edge[1] in children:
            break
        pairs.add(edge)
        children.add(edge[1])
    else:  # pragma: no cover - the quick preset revisits states
        pytest.fail("no edge into a known state")

    def flag(harness, snapshot, previous):
        return "flagged edge" if (previous, snapshot) == edge else None

    monkeypatch.setitem(ORACLES, "flag-edge", flag)
    result = assert_same_walk(config, depth, oracles=(*catalog, "flag-edge"))
    assert result.violation == Violation("flag-edge", "flagged edge")
    assert result.schedule


def test_oracles_run_once_per_state_or_per_new_transition(monkeypatch):
    calls = Counter()

    def counting(name, oracle):
        def counted(harness, snapshot, previous):
            calls[name] += 1
            return oracle(harness, snapshot, previous)

        return counted

    monkeypatch.setitem(ORACLES, "no-fork", counting("no-fork", ORACLES["no-fork"]))
    monkeypatch.setitem(ORACLES, "count", counting("count", lambda *_: None))
    explorer = Explorer(
        config=quick_config("hybrid"), depth=6, oracles=("no-fork", "count")
    )
    result = explorer.run()
    assert result.ok
    taken = sum(
        child is not None
        for state in explorer._states.values()
        for child in state.successors
    )
    # An oracle outside the state set runs on the root and on every
    # transition taken for the first time; a state oracle on each state.
    assert calls["count"] == 1 + taken
    assert calls["no-fork"] == result.states
    assert result.states < 1 + taken < 1 + result.transitions


def test_state_oracles_ignore_the_parent_snapshot():
    # With the participants guard off and a crash budget, no-fork (the
    # in-doubt fork) and participants-only are violated in some recorded
    # states; vn-monotone alone never stops the walk.
    config = CheckConfig(
        protocol="dynamic",
        n_sites=3,
        updates=1,
        crashes=1,
        recoveries=1,
        disable_participants_guard=True,
    )
    explorer = Explorer(config=config, depth=9, oracles=("vn-monotone",))
    assert explorer.run().ok
    harness = explorer._harness
    snapshots = list(explorer._states)
    verdicts = Counter()
    for snapshot, other in zip(snapshots, snapshots[1:] + snapshots[:1]):
        harness.replay((), start=snapshot)
        for name in sorted(STATE_ORACLES):
            oracle = ORACLES[name]
            alone = oracle(harness, snapshot, None)
            assert oracle(harness, snapshot, other) == alone, (name, snapshot)
            verdicts[name, alone is None] += 1
    assert verdicts["no-fork", False] > 0
    assert verdicts["participants-only", False] > 0
