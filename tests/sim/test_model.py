"""Unit tests for the stochastic model (frequent-update dynamics)."""

import random

import pytest

from repro.core import make_protocol, protocol_names
from repro.sim import (
    AvailabilityAccumulator,
    RandomStreams,
    Rates,
    StochasticReplicaSystem,
)
from repro.types import site_names


def system(name="hybrid", n=5, ratio=1.0, seed=11):
    protocol = make_protocol(name, site_names(n))
    return StochasticReplicaSystem(
        protocol, Rates.from_ratio(ratio), random.Random(seed)
    )


class TestDynamics:
    def test_starts_available_with_all_up(self):
        s = system()
        assert s.available
        assert s.up == frozenset("ABCDE")

    def test_step_applies_the_frequent_update(self):
        s = system()
        s.step()  # a failure, then an update by the surviving 4 sites
        assert s.up != frozenset("ABCDE")
        meta = s.copies[next(iter(s.up))]
        assert meta.cardinality == 4
        assert meta.version == 1
        assert s.updates_accepted == 1

    def test_cardinality_tracks_cascading_failures(self):
        s = system("dynamic", n=5, ratio=0.0001, seed=5)
        # With a tiny repair rate, failures cascade; dynamic voting walks
        # its cardinality down one at a time until it bottoms out at 2.
        cards = set()
        for _ in range(4):
            s.step()
            up = s.up
            if up and s.available:
                cards.add(s.copies[next(iter(up))].cardinality)
        assert cards <= {2, 3, 4}

    def test_blocked_states_deny_updates(self):
        s = system("voting", n=3, ratio=0.0001, seed=2)
        s.step()  # one down: majority of 3 is 2 -> still up
        s.step()  # two down -> blocked
        assert not s.available
        assert s.updates_denied >= 1

    def test_copies_converge_after_acceptance(self):
        s = system(seed=13)
        for _ in range(50):
            s.step()
            if s.available:
                metas = {s.copies[site] for site in s.up}
                assert len(metas) == 1

    def test_run_counts_events(self):
        s = system()
        s.run(25)
        assert s.updates_accepted + s.updates_denied <= 25
        assert s.time > 0

    def test_negative_run_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            system().run(-1)


class TestStalePartitionsBlocked:
    """Theorem 1 on the scalar oracle: no update without a current copy.

    ``verify_stale_partitions_blocked`` checks this on the derived chains;
    these seeded walks check it on the executable model, for every
    registered protocol.  A Monte-Carlo kernel that decides from the up
    set and the set of current sites alone relies on it.
    """

    @pytest.mark.parametrize("name", protocol_names())
    def test_no_update_is_granted_to_stale_copies_only(self, name):
        stale_only = 0
        for n in range(3, 7):
            for seed, ratio in ((1, 0.5), (2, 1.0), (3, 4.0)):
                s = system(name, n=n, ratio=ratio, seed=seed)
                for _ in range(300):
                    before = s.copies
                    newest = max(meta.version for meta in before.values())
                    accepted = s.updates_accepted
                    s.step()
                    if s.up and all(before[x].version < newest for x in s.up):
                        stale_only += 1
                        assert s.updates_accepted == accepted, (n, seed, s.up)
        assert stale_only > 0  # the walks do reach stale-only partitions


class TestAccumulator:
    def test_estimate_in_unit_interval(self):
        s = system(seed=3)
        accumulator = AvailabilityAccumulator(s)
        estimate = accumulator.run(2_000)
        assert 0.0 < estimate < 1.0

    def test_estimate_close_to_analytic(self):
        from repro.markov import availability

        s = system("dynamic", n=4, ratio=2.0, seed=29)
        accumulator = AvailabilityAccumulator(s)
        estimate = accumulator.run(60_000)
        expected = availability("dynamic", 4, 2.0)
        assert estimate == pytest.approx(expected, abs=0.02)

    def test_burn_in_discards_early_time(self):
        s = system(seed=17)
        accumulator = AvailabilityAccumulator(s, burn_in=5.0)
        accumulator.run(2_000)
        assert accumulator.observed_time < s.time

    def test_negative_burn_in_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            AvailabilityAccumulator(system(), burn_in=-1.0)

    def test_empty_estimate_is_zero(self):
        accumulator = AvailabilityAccumulator(system())
        assert accumulator.estimate() == 0.0


class TestRandomStreams:
    def test_streams_are_reproducible(self):
        a = RandomStreams(5).stream("x").random()
        b = RandomStreams(5).stream("x").random()
        assert a == b

    def test_streams_are_named_and_cached(self):
        streams = RandomStreams(5)
        assert streams.stream("x") is streams.stream("x")
        assert streams.stream("x") is not streams.stream("y")

    def test_different_names_differ(self):
        streams = RandomStreams(5)
        assert streams.stream("x").random() != streams.stream("y").random()

    def test_spawn_is_independent(self):
        parent = RandomStreams(5)
        child = parent.spawn("worker")
        assert child.master_seed != parent.master_seed
        assert child.stream("x").random() != parent.stream("x").random()
