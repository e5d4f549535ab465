"""Restoring the harness from a state's snapshot.

The explorer brings its harness back to a state it has left by rewriting
the cluster from the state's :class:`~repro.check.state.ClusterSnapshot`.
Restoring a snapshot must reproduce it exactly, on a harness that has
walked anywhere before; ``test_snapshot_exact.py`` checks that a restored
state also has the replayed state's future.
"""

import pytest

from repro.check import CheckConfig, CheckHarness, Explorer, SubmitOp
from repro.check.runner import QUICK_DEPTH, quick_config
from repro.errors import CheckError


@pytest.mark.parametrize(
    ("config", "depth"),
    [
        (quick_config("hybrid"), QUICK_DEPTH),
        (quick_config("dynamic"), QUICK_DEPTH),
        (
            CheckConfig(protocol="hybrid", updates=1, crashes=1, recoveries=1),
            8,
        ),
        (
            CheckConfig(protocol="dynamic", updates=1, link_cuts=1, link_heals=1),
            8,
        ),
    ],
    ids=["quick-hybrid", "quick-dynamic", "crash-recover-hybrid", "cut-heal-dynamic"],
)
def test_restore_reproduces_every_recorded_snapshot(config, depth):
    # The crash-recover run queues votes for recovery runs that have
    # already finished; only the requester recorded in the lock queue
    # says where their grants reply to.
    explorer = Explorer(config=config, depth=depth)
    assert explorer.run().ok
    harness = explorer._harness
    for snapshot in explorer._states:
        assert harness.replay((), start=snapshot)
        assert harness.snapshot() == snapshot


def test_restoring_a_message_this_harness_never_sent_fails():
    config = quick_config("hybrid")
    sender = CheckHarness(config)
    assert sender.apply(SubmitOp(index=0, site="A"))
    snapshot = sender.snapshot()
    key = snapshot.pending_messages[0]
    with pytest.raises(CheckError, match="never sent") as excinfo:
        CheckHarness(config).replay((), start=snapshot)
    assert repr(key) in str(excinfo.value)


def test_a_causal_harness_restores_only_from_the_root():
    config = quick_config("hybrid")
    snapshot = CheckHarness(config).snapshot()
    harness = CheckHarness(config, causal=True)
    with pytest.raises(CheckError, match="causal"):
        harness.replay((), start=snapshot)
    assert harness.replay(())
