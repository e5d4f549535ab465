"""Experiment E12: availability of the *message-level* implementation.

The chains and the state-level Monte-Carlo all assume instantaneous
updates.  This bench drops the assumption: the full Section V protocol
(locks, vote rounds, commit messages, losses, Make_Current restarts) runs
under Poisson failures and repairs, and availability is measured by
Poisson-sampled probe updates at uniformly random sites (PASTA).  With the
time scales separated (latency 0.002 << probe gap 0.5 << MTBF 100) the
measurement must land on the analytic value -- closing the loop between
Section V's protocol and Section VI's analysis.
"""

import math
import statistics

from repro.core import HybridProtocol
from repro.markov import availability
from repro.netsim import ClusterModelDriver, ReplicaCluster
from repro.sim import RandomStreams, Rates
from repro.types import site_names

RATIO = 2.0
N = 5
REPLICATES = 6
HORIZON = 12_000.0


def measure():
    estimates = []
    totals = {"denied": 0, "other": 0, "probes": 0}
    for seed in range(REPLICATES):
        cluster = ReplicaCluster(
            HybridProtocol(site_names(N)), initial_value=0, latency=0.002
        )
        driver = ClusterModelDriver(
            cluster,
            Rates(0.01, 0.01 * RATIO),
            probe_rate=2.0,
            streams=RandomStreams(900 + seed),
        )
        stats = driver.run(HORIZON)
        cluster.check_consistency()
        estimates.append(stats.availability)
        totals["denied"] += stats.denied
        totals["other"] += stats.other
        totals["probes"] += stats.probes
    return estimates, totals


def test_message_level_availability(benchmark):
    estimates, totals = benchmark.pedantic(measure, rounds=1, iterations=1)
    mean = statistics.fmean(estimates)
    stderr = statistics.stdev(estimates) / math.sqrt(len(estimates))
    analytic = availability("hybrid", N, RATIO)
    print(
        f"\nmessage-level availability: {mean:.4f} +/- {stderr:.4f} "
        f"(analytic {analytic:.4f}; {totals['probes']} probes, "
        f"{totals['denied']} denied, {totals['other']} interrupted)"
    )
    # 4-sigma band plus a small allowance for the protocol's real message
    # delays (a probe can straddle a failure; the model cannot).
    assert abs(mean - analytic) <= 4 * stderr + 0.01
    # The protocol machinery itself must stay healthy: interrupted runs
    # (coordinator died / timed out mid-probe) are a tiny fraction.
    assert totals["other"] <= 0.01 * totals["probes"]
