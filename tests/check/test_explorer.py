"""The bounded explorer: deterministic counts, pruning, truncation."""

import gc

import pytest

from repro.check import CheckConfig, Explorer
from repro.check.oracles import ORACLES
from repro.errors import CheckError


def explore(depth=8, **config_kwargs):
    config_kwargs.setdefault("protocol", "dynamic")
    config_kwargs.setdefault("n_sites", 3)
    config_kwargs.setdefault("updates", 1)
    return Explorer(config=CheckConfig(**config_kwargs), depth=depth).run()


class TestDeterministicCounts:
    def test_state_and_transition_counts_are_pinned(self):
        # These exact numbers are the determinism contract: any change to
        # the harness, the action alphabet, or the pruning machinery that
        # shifts them is a semantic change and must be reviewed as such.
        result = explore()
        assert result.ok
        assert result.violation is None
        assert (result.states, result.transitions) == (384, 506)

    def test_rerun_is_bit_identical(self):
        first, second = explore(), explore()
        assert first.to_dict() == second.to_dict()

    def test_voting_and_dynamic_agree_without_faults(self):
        # With no crashes or partitions the two protocols make identical
        # quorum decisions, so the reachable graphs coincide.
        dynamic = explore()
        voting = explore(protocol="voting")
        assert (voting.states, voting.transitions) == (
            dynamic.states,
            dynamic.transitions,
        )


class TestPruning:
    def test_sleep_sets_and_cache_both_fire(self):
        result = explore(updates=2, depth=6)
        assert result.sleep_pruned > 0
        assert result.cache_pruned > 0

    def test_depth_bound_cuts_the_frontier(self):
        shallow = explore(depth=4)
        assert shallow.frontier_cutoffs > 0
        assert shallow.states < explore().states


class TestTruncation:
    def test_max_states_flags_the_run(self):
        result = Explorer(
            config=CheckConfig(protocol="dynamic", n_sites=3, updates=1),
            depth=8,
            max_states=50,
        ).run()
        assert result.truncated
        assert not result.ok
        assert result.states <= 51

    @pytest.mark.parametrize("budget", [0, -1])
    def test_max_states_below_one_is_rejected(self, budget):
        with pytest.raises(CheckError, match="max-states must be positive"):
            Explorer(config=CheckConfig(), depth=8, max_states=budget)

    def test_faulty_configs_still_terminate(self):
        result = explore(crashes=1, depth=6)
        assert result.violation is None
        assert result.states > 0


class TestDepthBound:
    def test_negative_depth_is_rejected(self):
        with pytest.raises(CheckError, match="depth must be nonnegative"):
            Explorer(config=CheckConfig(), depth=-1)

    def test_depth_zero_checks_the_root_alone(self):
        result = explore(depth=0)
        assert result.ok
        assert (result.states, result.transitions) == (1, 0)
        assert result.frontier_cutoffs == 1


@pytest.fixture
def collector():
    """Restore the collector's setting whatever a test leaves behind."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


class TestCollector:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_pauses_the_collector_and_restores_it(
        self, monkeypatch, collector, enabled
    ):
        during = set()

        def probe(harness, snapshot, previous):
            during.add(gc.isenabled())
            return None

        monkeypatch.setitem(ORACLES, "gc-probe", probe)
        (gc.enable if enabled else gc.disable)()
        result = Explorer(
            config=CheckConfig(), depth=4, oracles=("gc-probe",)
        ).run()
        assert result.ok
        assert during == {False}
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_failing_run_restores_the_collector(self, collector, enabled):
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(CheckError, match="unknown oracle"):
            Explorer(config=CheckConfig(), depth=4, oracles=("nope",)).run()
        assert gc.isenabled() is enabled
