"""Unit tests for the message-level stochastic driver."""

import pytest

from repro.core import DynamicVotingProtocol, HybridProtocol
from repro.errors import SimulationError
from repro.netsim import ClusterModelDriver, ReplicaCluster
from repro.sim import RandomStreams, Rates
from repro.types import site_names


def driver_for(protocol_cls=HybridProtocol, seed=11, ratio=2.0, latency=0.002):
    cluster = ReplicaCluster(
        protocol_cls(site_names(5)), initial_value=0, latency=latency
    )
    return (
        cluster,
        ClusterModelDriver(
            cluster,
            Rates(0.01, 0.01 * ratio),
            probe_rate=1.0,
            streams=RandomStreams(seed),
        ),
    )


class TestDriver:
    def test_probe_accounting_is_complete(self):
        _, driver = driver_for()
        stats = driver.run(2_000.0)
        assert stats.probes > 0
        tallied = (
            stats.committed + stats.arrived_down + stats.denied + stats.other
        )
        assert tallied == stats.probes

    def test_consistency_survives_the_storm(self):
        cluster, driver = driver_for(DynamicVotingProtocol, seed=23)
        driver.run(2_000.0)
        cluster.check_consistency()

    def test_reproducible(self):
        _, d1 = driver_for(seed=5)
        _, d2 = driver_for(seed=5)
        assert d1.run(1_000.0).availability == d2.run(1_000.0).availability

    def test_down_arrivals_match_up_probability(self):
        _, driver = driver_for(seed=7, ratio=2.0)
        stats = driver.run(6_000.0)
        # P(arrival site down) should be about 1/(1+ratio) = 1/3.
        fraction = stats.arrived_down / stats.probes
        assert fraction == pytest.approx(1 / 3, abs=0.06)

    def test_availability_in_the_right_region(self):
        from repro.markov import availability

        _, driver = driver_for(seed=3)
        stats = driver.run(6_000.0)
        analytic = availability("hybrid", 5, 2.0)
        assert stats.availability == pytest.approx(analytic, abs=0.08)

    def test_nonpositive_probe_rate_rejected(self):
        cluster = ReplicaCluster(HybridProtocol(site_names(3)), initial_value=0)
        with pytest.raises(SimulationError):
            ClusterModelDriver(
                cluster, Rates(1.0, 1.0), probe_rate=0.0, streams=RandomStreams(1)
            )

    def test_past_horizon_rejected(self):
        _, driver = driver_for()
        with pytest.raises(SimulationError):
            driver.run(0.0)
