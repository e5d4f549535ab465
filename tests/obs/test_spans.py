"""Span forest tests: sim-time intervals with LIFO close enforcement."""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.obs import NULL_TRACKER, MetricsRegistry, SpanTracker, TraceLog


class TestNesting:
    def test_spans_nest_and_close_lifo(self):
        tracker = SpanTracker()
        run = tracker.open("run", 0.0)
        vote = tracker.open("vote", 0.1, parent=run)
        assert vote.parent is run
        vote.close(0.5)
        run.close(1.0)
        assert vote.duration == pytest.approx(0.4)
        assert run.duration == pytest.approx(1.0)
        assert tracker.open_count == 0
        assert tracker.closed_count == 2

    def test_closing_parent_with_open_child_raises(self):
        tracker = SpanTracker()
        run = tracker.open("run", 0.0)
        tracker.open("vote", 0.1, parent=run)
        with pytest.raises(ObservabilityError, match="LIFO"):
            run.close(1.0)

    def test_double_close_raises(self):
        tracker = SpanTracker()
        span = tracker.open("run", 0.0)
        span.close(1.0)
        with pytest.raises(ObservabilityError, match="closed twice"):
            span.close(2.0)

    def test_close_before_open_time_raises(self):
        tracker = SpanTracker()
        span = tracker.open("run", 5.0)
        with pytest.raises(ObservabilityError, match="before it opened"):
            span.close(4.0)

    def test_opening_under_closed_parent_raises(self):
        tracker = SpanTracker()
        run = tracker.open("run", 0.0)
        run.close(1.0)
        with pytest.raises(ObservabilityError, match="already-closed parent"):
            tracker.open("vote", 1.5, parent=run)

    def test_close_if_open_is_idempotent(self):
        tracker = SpanTracker()
        span = tracker.open("run", 0.0)
        span.close_if_open(1.0)
        span.close_if_open(2.0)
        assert span.end == 1.0

    def test_concurrent_runs_form_independent_chains(self):
        # Two interleaved protocol runs: LIFO holds per parent chain, not
        # globally, so closing run A's child after run B opened is fine.
        tracker = SpanTracker()
        run_a = tracker.open("run", 0.0)
        vote_a = tracker.open("vote", 0.1, parent=run_a)
        run_b = tracker.open("run", 0.2)
        vote_b = tracker.open("vote", 0.3, parent=run_b)
        vote_a.close(0.4)
        run_a.close(0.5)
        vote_b.close(0.6)
        run_b.close(0.7)
        assert tracker.open_count == 0
        assert tracker.closed_count == 4


class TestSinks:
    def test_close_records_duration_histogram(self):
        registry = MetricsRegistry()
        tracker = SpanTracker(metrics=registry)
        tracker.open("vote", 1.0).close(3.0)
        entry = registry.snapshot()["span.vote"]
        assert entry["count"] == 1
        assert entry["sum"] == pytest.approx(2.0)

    def test_close_emits_structured_trace_event(self):
        log = TraceLog()
        tracker = SpanTracker(trace_log=log)
        span = tracker.open("vote", 1.0, run_id=7)
        span.close(3.0, votes=4)
        (event,) = log.category("span")
        assert event.time == 3.0
        assert event.field("name") == "vote"
        assert event.field("start") == 1.0
        assert event.field("end") == 3.0
        assert event.field("duration") == pytest.approx(2.0)
        assert event.field("run_id") == 7
        assert event.field("votes") == 4


class TestNullTracker:
    def test_null_tracker_hands_out_one_shared_inert_span(self):
        a = NULL_TRACKER.open("run", 0.0)
        b = NULL_TRACKER.open("vote", 1.0, parent=a)
        assert a is b
        a.close(2.0)
        a.close(3.0)  # double close is a no-op on the null span
        assert NULL_TRACKER.open_count == 0
        assert NULL_TRACKER.closed_count == 0
