"""The memoized explorer against the replay-per-sibling reference.

The production :class:`~repro.check.explorer.Explorer` skips transitions
it has already taken and replays only when it must apply an action.  The
reference (:mod:`tests.check.replay_reference`) takes every transition
anew.  Both walk the same DFS with the same sleep sets and visit lists, so
they must agree on every :class:`~repro.check.explorer.CheckResult` field
and on the violating schedule, clean or not.
"""

import pytest

from repro.check import CheckConfig, Explorer
from repro.check.runner import QUICK_DEPTH, quick_config
from repro.core.registry import protocol_names

from .replay_reference import ReplayExplorer


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
