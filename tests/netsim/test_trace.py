"""Tests for the netsim trace log and the transcript derived from it."""

from repro.core import HybridProtocol
from repro.netsim import ReplicaCluster, TraceLog
from repro.obs import CausalDag, transcript
from repro.types import site_names


def traced_cluster():
    return ReplicaCluster(
        HybridProtocol(site_names(3)), initial_value="v0", trace=True
    )


def records(cluster: ReplicaCluster) -> TraceLog:
    """The transcript of a traced cluster, as a log of its records."""
    log = TraceLog()
    for record in transcript(CausalDag.from_events(cluster.trace_log.events)):
        log.append(record)
    return log


class TestTraceLog:
    def test_record_and_filter(self):
        log = TraceLog()
        log.record(1.0, "run", "something happened")
        log.record(2.0, "message", "A -> B VoteRequest(run 1)")
        assert len(log) == 2
        assert len(log.category("run")) == 1
        assert len(log.matching("VoteRequest")) == 1

    def test_capacity_bound(self):
        log = TraceLog(capacity=2)
        for i in range(5):
            log.record(float(i), "run", f"e{i}")
        assert len(log) == 2
        assert log.dropped == 3

    def test_render_with_limit(self):
        log = TraceLog()
        for i in range(5):
            log.record(float(i), "run", f"e{i}")
        text = log.render(limit=2)
        assert "e0" in text and "e1" in text
        assert "(3 more)" in text

    def test_render_filters_categories(self):
        log = TraceLog()
        log.record(0.0, "run", "keep me")
        log.record(0.0, "message", "drop me")
        text = log.render(categories=["run"])
        assert "keep me" in text and "drop me" not in text


class TestClusterTracing:
    def test_disabled_by_default(self):
        cluster = ReplicaCluster(HybridProtocol(site_names(3)), initial_value=0)
        assert cluster.trace_log is None

    def test_run_lifecycle_recorded(self):
        cluster = traced_cluster()
        run = cluster.submit_update("A", "v1")
        cluster.settle()
        log = records(cluster)
        assert log.matching(f"run {run.run_id} [update] submitted")
        assert log.matching(f"run {run.run_id} [update] at A: committed")

    def test_messages_recorded(self):
        cluster = traced_cluster()
        cluster.submit_update("A", "v1")
        cluster.settle()
        deliveries = records(cluster).category("message")
        kinds = {d.description.split()[3].split("(")[0] for d in deliveries}
        assert "VoteRequest" in kinds
        assert "VoteReply" in kinds
        assert "CommitMessage" in kinds

    def test_losses_recorded_with_reason(self):
        cluster = traced_cluster()
        cluster.submit_update("A", "v1")
        cluster.run_for(cluster.vote_window / 8)  # requests in flight
        cluster.fail_site("B")
        cluster.settle()
        lost = records(cluster).matching("LOST")
        assert lost
        assert any("endpoint down" in e.description for e in lost)

    def test_topology_changes_recorded(self):
        cluster = traced_cluster()
        cluster.fail_link("A", "B")
        cluster.fail_site("C")
        cluster.repair_site("C", run_restart=False)
        log = records(cluster)
        assert log.matching("link A-B failed")
        assert log.matching("site C failed")
        assert log.matching("site C repaired")

    def test_events_are_chronological(self):
        cluster = traced_cluster()
        cluster.submit_update("A", "v1")
        cluster.settle()
        for log in (cluster.trace_log, records(cluster)):
            times = [e.time for e in log.events]
            assert times == sorted(times)

    def test_the_log_holds_only_causal_events(self):
        # One emission: everything else is derived from these events.
        cluster = traced_cluster()
        cluster.fail_link("A", "B")
        cluster.submit_update("A", "v1")
        cluster.settle()
        assert {e.category for e in cluster.trace_log.events} == {"causal"}

    def test_trace_and_causal_are_one_switch(self):
        def export(**switch) -> str:
            from repro.netsim import reset_run_ids

            reset_run_ids()
            cluster = ReplicaCluster(
                HybridProtocol(site_names(3)), initial_value="v0", **switch
            )
            cluster.submit_update("A", "v1")
            cluster.settle()
            return cluster.trace_log.to_jsonl()

        assert export(trace=True) == export(causal=True)
        assert export(trace=True) == export(trace=True, causal=True)
