"""The explorer's one assumption: equal snapshots have equal futures.

The visited-state cache prunes a state whose snapshot it has seen, and the
transition memo reuses the successor an action led to from an equal
snapshot, so both rely on :meth:`CheckHarness.snapshot` capturing
everything that shapes what happens next.  This test enumerates every
schedule up to a small depth, with no sleep sets and no caching, and
groups the schedules by the snapshot they reach.  For each group of two or
more, it replays the first and the last schedule: both must enable the
same actions, and each action must lead to equal snapshots.

The explorer also restores its harness from a state's snapshot, which
makes the snapshot the only state carried between branches.  So for
every enumerated schedule, the state restored from the schedule's
snapshot, on a harness that has walked elsewhere, must have the future
of the state the schedule reaches by replay.
"""

import pytest

from repro.check import CheckConfig, CheckHarness, ClusterSnapshot
from repro.check.actions import Action
from repro.check.runner import quick_config


def schedules_by_snapshot(
    config: CheckConfig, depth: int
) -> dict[ClusterSnapshot, list[tuple[Action, ...]]]:
    """Every schedule of at most ``depth`` actions, keyed by its snapshot."""
    harness = CheckHarness(config)
    groups: dict[ClusterSnapshot, list[tuple[Action, ...]]] = {}

    def walk(schedule: list[Action]) -> None:
        groups.setdefault(harness.snapshot(), []).append(tuple(schedule))
        if len(schedule) == depth:
            return
        for position, action in enumerate(harness.enabled_actions()):
            if position > 0:
                assert harness.replay(schedule)
            assert harness.apply(action)
            schedule.append(action)
            walk(schedule)
            schedule.pop()

    walk([])
    return groups


def future(
    harness: CheckHarness, schedule: tuple[Action, ...]
) -> tuple[list[Action], list[ClusterSnapshot]]:
    """The enabled actions after ``schedule`` and the snapshot each reaches."""
    assert harness.replay(schedule)
    enabled = harness.enabled_actions()
    successors = []
    for action in enabled:
        assert harness.replay(schedule)
        assert harness.apply(action)
        successors.append(harness.snapshot())
    return enabled, successors


def restored_future(
    harness: CheckHarness, snapshot: ClusterSnapshot
) -> tuple[list[Action], list[ClusterSnapshot]]:
    """:func:`future`, with the state restored from ``snapshot`` each time."""
    assert harness.replay((), start=snapshot)
    enabled = harness.enabled_actions()
    successors = []
    for action in enabled:
        assert harness.replay((action,), start=snapshot)
        successors.append(harness.snapshot())
    return enabled, successors


CONFIGS = pytest.mark.parametrize(
    ("config", "depth"),
    [
        (quick_config("hybrid"), 5),
        (CheckConfig(protocol="dynamic", updates=1, crashes=1, recoveries=1), 5),
    ],
    ids=["quick-hybrid", "crash-recover-dynamic"],
)


@CONFIGS
def test_equal_snapshots_have_equal_futures(config, depth):
    groups = schedules_by_snapshot(config, depth)
    shared = [schedules for schedules in groups.values() if len(schedules) > 1]
    assert len(shared) >= 50
    harness = CheckHarness(config)
    for schedules in shared:
        first, last = schedules[0], schedules[-1]
        assert future(harness, first) == future(harness, last), (first, last)


@CONFIGS
def test_restored_states_have_the_replayed_future(config, depth):
    groups = schedules_by_snapshot(config, depth)
    replayed, restored = CheckHarness(config), CheckHarness(config)
    for snapshot, schedules in groups.items():
        for schedule in schedules:
            assert future(replayed, schedule) == restored_future(
                restored, snapshot
            ), schedule
