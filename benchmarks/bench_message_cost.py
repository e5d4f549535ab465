"""Section VI-A's communication claim, measured.

"There are other measures by which one might compare pessimistic
algorithms, for example, the amount of communication required ... The
algorithms considered in this paper are very similar when compared under
any of these other measures; the algorithms differ only in their
availability."

This bench measures messages per committed update for each algorithm over
identical healthy runs and identical failure storms (common random
numbers), confirming the near-identical communication cost -- all four
send one vote round plus one commit round -- and pinning the measured
values so a regression in the protocol plumbing would surface here.
"""

from repro.analysis import render_table
from repro.core import make_protocol
from repro.netsim import ClusterModelDriver, ReplicaCluster, RunStatus
from repro.sim import RandomStreams, Rates
from repro.types import site_names

PROTOCOLS = ("voting", "dynamic", "dynamic-linear", "hybrid")
N = 5


def healthy_cost(name: str) -> float:
    """Messages per committed update with no failures at all."""
    cluster = ReplicaCluster(make_protocol(name, site_names(N)), initial_value=0)
    commits = 20
    for k in range(commits):
        run = cluster.submit_update(site_names(N)[k % N], k)
        cluster.settle()
        assert run.status is RunStatus.COMMITTED
    return cluster.network.statistics["sent"] / commits


def stormy_cost(name: str) -> tuple[float, float]:
    """(messages per probe, availability) under a common failure storm."""
    cluster = ReplicaCluster(
        make_protocol(name, site_names(N)), initial_value=0, latency=0.002
    )
    driver = ClusterModelDriver(
        cluster, Rates(0.01, 0.02), probe_rate=1.0, streams=RandomStreams(77)
    )
    stats = driver.run(3_000.0)
    messages = cluster.network.statistics["sent"]
    return messages / stats.probes, stats.availability


def sweep():
    return {
        name: (healthy_cost(name), *stormy_cost(name)) for name in PROTOCOLS
    }


def test_message_cost_is_protocol_independent(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        render_table(
            ["protocol", "msgs/commit (healthy)", "msgs/probe (storm)", "avail"],
            [[k, *v] for k, v in rows.items()],
            title="Communication cost (Section VI-A claim)",
        )
    )
    healthy = [v[0] for v in rows.values()]
    # Healthy runs: every algorithm sends exactly the same message count
    # per commit -- (n-1) vote requests, (n-1) replies, (n-1) commits.
    assert max(healthy) == min(healthy)
    assert healthy[0] == 3 * (N - 1)
    # Under the common storm the per-probe costs stay within a small band
    # of each other (availability differs; the communication does not,
    # beyond the second-order effect of who manages to commit).
    stormy = [v[1] for v in rows.values()]
    assert max(stormy) - min(stormy) <= 0.2 * max(stormy)
