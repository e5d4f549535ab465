"""Integration tests: the message-level simulator's telemetry."""

from __future__ import annotations

from repro.core.hybrid import HybridProtocol
from repro.netsim.cluster import ReplicaCluster
from repro.obs import NULL_REGISTRY, CausalDag, MetricsRegistry, spans
from repro.types import site_names


def build_cluster(n: int = 3, **kwargs) -> ReplicaCluster:
    return ReplicaCluster(
        HybridProtocol(site_names(n)), initial_value="v0", **kwargs
    )


class TestDisabledByDefault:
    def test_cluster_without_metrics_uses_the_null_registry(self):
        cluster = build_cluster()
        assert cluster.metrics is NULL_REGISTRY
        assert cluster.trace_log is None
        cluster.submit_update("A", "v1")
        cluster.settle()
        assert cluster.metrics.names() == ()


class TestMessageCounters:
    def test_counts_by_message_type(self):
        registry = MetricsRegistry()
        cluster = build_cluster(metrics=registry)
        cluster.submit_update("A", "v1")
        cluster.settle()
        snapshot = registry.snapshot()
        # 2PC fan-out to the two subordinates, both up: sent == delivered.
        assert snapshot["netsim.message.sent.VoteRequest"]["value"] == 2
        assert snapshot["netsim.message.delivered.VoteRequest"]["value"] == 2
        assert snapshot["netsim.message.sent.CommitMessage"]["value"] == 2
        assert registry.counter("netsim.votes.requested").value == 2
        assert registry.counter("netsim.votes.replies").value == 2

    def test_lost_messages_counted_by_reason(self):
        registry = MetricsRegistry()
        cluster = build_cluster(metrics=registry)
        cluster.fail_site("C")
        cluster.submit_update("A", "v1")
        cluster.settle()
        assert (
            registry.counter("netsim.message.lost.endpoint-down").value > 0
        )


class TestRunAndTopologyCounters:
    def test_run_outcomes_and_latency(self):
        registry = MetricsRegistry()
        cluster = build_cluster(metrics=registry)
        cluster.submit_update("A", "v1")
        cluster.settle()
        cluster.submit_read("B")
        cluster.settle()
        snapshot = registry.snapshot()
        assert snapshot["netsim.run.submitted.update"]["value"] == 1
        assert snapshot["netsim.run.submitted.read"]["value"] == 1
        assert snapshot["netsim.run.committed"]["value"] == 1
        assert snapshot["netsim.run.completed"]["value"] == 1
        assert snapshot["netsim.run.latency"]["count"] == 2
        assert snapshot["netsim.run.latency"]["min"] > 0

    def test_topology_counters(self):
        registry = MetricsRegistry()
        cluster = build_cluster(metrics=registry)
        cluster.fail_site("C")
        cluster.settle()
        cluster.repair_site("C")
        cluster.settle()
        assert registry.counter("netsim.topology.site-failures").value == 1
        assert registry.counter("netsim.topology.site-repairs").value == 1

    def test_coordinator_failure_counts_a_failed_update(self):
        registry = MetricsRegistry()
        cluster = build_cluster(metrics=registry, latency=0.01, vote_window=10.0)
        cluster.submit_update("A", "v1")
        cluster.run_for(0.015)  # vote round in flight
        cluster.fail_site("A")
        snapshot = registry.snapshot()
        assert snapshot["netsim.run.failed"]["value"] == 1
        assert snapshot["op.aborted"]["value"] == 1
        assert snapshot["op.abort.rate"]["value"] == 1.0
        assert snapshot["netsim.run.latency"]["count"] == 1


def traced_spans(cluster: ReplicaCluster) -> tuple:
    """The spans of a traced cluster's run so far, closed ones first."""
    assert cluster.trace_log is not None
    return spans(CausalDag.from_events(cluster.trace_log.events))


class TestSpans:
    def test_phase_spans_recorded_and_all_closed(self):
        cluster = build_cluster(trace=True)
        cluster.submit_update("A", "v1")
        cluster.settle()
        cluster.fail_site("C")
        cluster.submit_update("A", "v2")  # leaves C with a stale copy
        cluster.settle()
        cluster.repair_site("C")  # triggers make-current with catch-up
        cluster.settle()
        derived = traced_spans(cluster)
        counts = {
            name: sum(span.name == name for span in derived)
            for name in ("run", "vote", "catch-up", "in-doubt")
        }
        assert counts == {"run": 3, "vote": 3, "catch-up": 1, "in-doubt": 5}
        assert all(span.end is not None for span in derived)

    def test_vote_span_nests_inside_the_run_span(self):
        cluster = build_cluster(trace=True)
        cluster.submit_update("A", "v1")
        cluster.settle()
        derived = traced_spans(cluster)
        (vote,) = [span for span in derived if span.name == "vote"]
        assert vote.parent is not None and vote.parent.name == "run"
        assert vote.parent.start <= vote.start
        assert vote.end <= vote.parent.end

    def test_coordinator_failure_closes_its_spans_blocks_subordinates(self):
        registry = MetricsRegistry()
        cluster = build_cluster(
            metrics=registry, trace=True, latency=0.01, vote_window=10.0
        )
        cluster.submit_update("A", "v1")
        cluster.run_for(0.015)  # vote round in flight
        cluster.fail_site("A")
        cluster.settle()
        # The coordinator's run/vote spans closed with the failure; the
        # subordinates' in-doubt spans stay open -- honest 2PC blocking.
        derived = traced_spans(cluster)
        assert [span.name for span in derived if span.end is not None] == [
            "vote",
            "run",
        ]
        assert sum(span.end is None for span in derived) == 2
        cluster.repair_site("A")
        cluster.settle()  # presumed abort settles the blocked subordinates
        assert all(span.end is not None for span in traced_spans(cluster))
        assert registry.counter("netsim.termination.probes").value >= 2


class TestLockWaits:
    def test_contended_lock_counts_a_wait(self):
        registry = MetricsRegistry()
        cluster = build_cluster(metrics=registry)
        cluster.submit_update("A", "v1")
        cluster.submit_update("B", "v2")  # contends for the same item
        cluster.settle()
        assert registry.counter("netsim.lock.waits").value >= 1


class TestDeterminism:
    def test_two_identical_workloads_identical_snapshots(self):
        def run() -> dict:
            registry = MetricsRegistry()
            cluster = build_cluster(metrics=registry)
            cluster.submit_update("A", "v1")
            cluster.settle()
            cluster.fail_site("C")
            cluster.submit_update("A", "v2")
            cluster.settle()
            cluster.repair_site("C")
            cluster.settle()
            return registry.snapshot()

        assert run() == run()
