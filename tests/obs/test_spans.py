"""Sim-time spans derived from the causal DAG: intervals, nesting, windows."""

from __future__ import annotations

import json

import pytest

from repro.core.hybrid import HybridProtocol
from repro.errors import ObservabilityError
from repro.netsim import ReplicaCluster
from repro.obs import CausalDag, spans, transcript
from repro.obs.query import Span
from repro.types import site_names


def traced(n: int = 3, **kwargs) -> ReplicaCluster:
    return ReplicaCluster(
        HybridProtocol(site_names(n)), initial_value="v0", trace=True, **kwargs
    )


def dag_of(cluster: ReplicaCluster) -> CausalDag:
    assert cluster.trace_log is not None
    return CausalDag.from_jsonl(cluster.trace_log.to_jsonl())


def named(derived: tuple[Span, ...], name: str) -> list[Span]:
    return [span for span in derived if span.name == name]


def assert_well_nested(derived: tuple[Span, ...]) -> None:
    """Each span ends no earlier than it starts, inside its parent."""
    for span in derived:
        if span.end is not None:
            assert span.end >= span.start
        parent = span.parent
        if parent is not None:
            assert parent.name == "run" and parent.run_id == span.run_id
            assert parent.start <= span.start
            if parent.end is not None:
                assert span.end is not None and span.end <= parent.end


class TestNesting:
    def test_spans_nest_and_close_lifo(self):
        cluster = traced()
        cluster.submit_update("A", "v1")
        cluster.settle()
        derived = spans(dag_of(cluster))
        (run,) = named(derived, "run")
        (vote,) = named(derived, "vote")
        assert vote.parent is run
        assert run.parent is None
        # The vote closes first, at the run's end at the latest.
        assert derived.index(vote) < derived.index(run)
        assert vote.end <= run.end
        assert run.duration == pytest.approx(4 * 0.01)
        assert [span.site for span in named(derived, "in-doubt")] == ["B", "C"]
        assert all(span.end is not None for span in derived)
        assert_well_nested(derived)

    def test_concurrent_runs_form_independent_chains(self):
        cluster = traced()
        first = cluster.submit_update("A", "v1")
        second = cluster.submit_update("B", "v2")  # contends for the locks
        cluster.settle()
        derived = spans(dag_of(cluster))
        runs = {span.run_id: span for span in named(derived, "run")}
        assert set(runs) == {first.run_id, second.run_id}
        for vote in named(derived, "vote"):
            assert vote.parent is runs[vote.run_id]
        assert_well_nested(derived)

    def test_close_if_open_is_idempotent(self):
        # B votes, crashes before the commit reaches it, and is back up
        # when the commit arrives: its in-doubt window closed at the
        # crash, and the late delivery does not close it again.
        cluster = traced(vote_window=0.04)
        cluster.submit_update("A", "v1")
        cluster.run_for(0.045)  # the commit is in flight to B
        cluster.fail_site("B")
        cluster.repair_site("B", run_restart=False)
        cluster.settle()
        derived = spans(dag_of(cluster))
        (window,) = [span for span in named(derived, "in-doubt") if span.site == "B"]
        assert window.end == pytest.approx(0.045)

    def test_close_before_open_time_raises(self):
        # A corrupted export whose finish precedes its submit in sim time
        # would fold a negative duration; the view refuses it.
        cluster = traced()
        cluster.submit_update("A", "v1")
        cluster.settle()
        lines = []
        for line in cluster.trace_log.to_jsonl().splitlines():
            record = json.loads(line)
            if record["fields"]["event"] == "finish":
                record["time"] = -1.0
            lines.append(json.dumps(record))
        dag = CausalDag.from_jsonl("\n".join(lines))
        with pytest.raises(ObservabilityError, match="closes at -1.0 before"):
            spans(dag)

    def test_run_that_ends_before_its_start_has_a_zero_length_span(self):
        cluster = traced()
        cluster.submit_update("A", "v1")
        cluster.fail_site("A")  # before the zero-delay start timer fires
        cluster.settle()
        (run,) = spans(dag_of(cluster))
        assert run.name == "run"
        assert run.duration == 0.0

    def test_blocked_in_doubt_windows_stay_open(self):
        cluster = traced(latency=0.01, vote_window=10.0)
        cluster.submit_update("A", "v1")
        cluster.run_for(0.015)  # vote round in flight
        cluster.fail_site("A")
        cluster.settle()
        derived = spans(dag_of(cluster))
        assert [span.name for span in derived if span.end is not None] == [
            "vote",
            "run",
        ]
        assert [(span.name, span.end) for span in derived[2:]] == [
            ("in-doubt", None),
            ("in-doubt", None),
        ]


class TestSinks:
    def test_close_emits_structured_trace_event(self):
        cluster = traced()
        cluster.submit_update("A", "v1")
        cluster.settle()
        dag = dag_of(cluster)
        records = [r for r in transcript(dag) if r.category == "span"]
        derived = spans(dag)
        assert len(records) == len(derived)
        for record, span in zip(records, derived):
            assert record.time == span.end
            assert record.description == f"{span.name} took {span.duration:.4f}"

    def test_untraced_cluster_has_no_spans_to_derive(self):
        cluster = ReplicaCluster(HybridProtocol(site_names(3)), initial_value="v0")
        cluster.submit_update("A", "v1")
        cluster.settle()
        assert cluster.trace_log is None
