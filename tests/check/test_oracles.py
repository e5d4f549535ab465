"""The invariant oracle catalog."""

import dataclasses

import pytest

from repro.check import (
    CheckConfig,
    CheckHarness,
    Explorer,
    check_oracles,
    default_oracle_names,
)
from repro.check.oracles import ORACLES
from repro.errors import CheckError


class TestCatalog:
    def test_default_names_cover_the_catalog(self):
        assert set(default_oracle_names()) == set(ORACLES)
        assert "no-fork" in ORACLES
        assert "participants-only" in ORACLES

    def test_unknown_oracle_name_raises(self):
        harness = CheckHarness(CheckConfig(protocol="dynamic", n_sites=3))
        snapshot = harness.snapshot()
        with pytest.raises(CheckError):
            check_oracles(("no-such-oracle",), harness, snapshot, None)

    def test_initial_state_satisfies_every_oracle(self):
        harness = CheckHarness(CheckConfig(protocol="dynamic", n_sites=3))
        snapshot = harness.snapshot()
        violation = check_oracles(
            default_oracle_names(), harness, snapshot, None
        )
        assert violation is None


class TestForkDetection:
    def test_guard_disabled_violates_participants_only(self):
        result = Explorer(
            config=CheckConfig(
                protocol="dynamic",
                n_sites=3,
                updates=1,
                disable_participants_guard=True,
            ),
            depth=8,
        ).run()
        assert result.violation is not None
        assert result.violation.oracle == "participants-only"
        assert "excludes" in result.violation.detail

    def test_single_oracle_selection_respected(self):
        # With only vn-monotone selected, the seeded fork bug's
        # participants-only violation goes unnoticed.
        result = Explorer(
            config=CheckConfig(
                protocol="dynamic",
                n_sites=3,
                updates=1,
                disable_participants_guard=True,
            ),
            depth=8,
            oracles=("vn-monotone",),
        ).run()
        assert result.violation is None


def _with_histories(snapshot, **histories):
    """``snapshot`` with the named sites' histories replaced."""
    records = tuple(
        (*record[:3], histories.get(record[0], record[3]), *record[4:])
        for record in snapshot.site_state
    )
    return dataclasses.replace(snapshot, site_state=records)


class TestHistoryOracles:
    """no-fork and durable-chain on hand-edited histories."""

    V0 = (0, "'v0'", 0)
    U1 = (1, "'u1'", 1)

    @pytest.fixture
    def harness(self):
        return CheckHarness(CheckConfig(protocol="dynamic", n_sites=3))

    def test_conflicting_installs_fork(self, harness):
        snapshot = _with_histories(
            harness.snapshot(), A=(self.V0, self.U1), B=(self.V0, (1, "'u2'", 2))
        )
        assert ORACLES["no-fork"](harness, snapshot, None) == (
            "forked history: version 1: (1, \"'u1'\") vs (2, \"'u2'\") at B"
        )

    def test_a_gap_breaks_the_chain(self, harness):
        snapshot = _with_histories(harness.snapshot(), A=(self.V0, (2, "'u2'", 2)))
        detail = ORACLES["durable-chain"](harness, snapshot, None)
        assert detail == "committed chain has gaps: missing versions [1]"

    def test_a_lost_or_rewritten_version(self, harness):
        root = harness.snapshot()
        committed = _with_histories(root, A=(self.V0, self.U1))
        rewritten = _with_histories(root, B=(self.V0, (1, "'u2'", 2)))
        durable_chain = ORACLES["durable-chain"]
        assert durable_chain(harness, committed, root) is None
        assert durable_chain(harness, committed, committed) is None
        assert durable_chain(harness, root, committed) == (
            "committed version 1 (1, \"'u1'\") was lost or rewritten to None"
        )
        assert durable_chain(harness, rewritten, committed) == (
            "committed version 1 (1, \"'u1'\") was lost or rewritten to "
            "(2, \"'u2'\")"
        )
