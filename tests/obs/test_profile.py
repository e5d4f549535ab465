"""Profiler tests: span folding invariants and collapsed-stack round-trip."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import ObservabilityError
from repro.obs import (
    Span,
    SpanProfiler,
    active_profiler,
    parse_collapsed,
    profiling,
)


def _folded_forest() -> SpanProfiler:
    """A two-root forest with nesting, folded in close order.

    run(0..10) > vote(1..7) > lock(2..3); commit(10..14) is a second
    root.  Durations: run 10 (excl 4), vote 6 (excl 5), lock 1,
    commit 4 -- total root time 14.
    """
    run = Span("run", 0.0, 10.0)
    vote = Span("vote", 1.0, 7.0, parent=run)
    lock = Span("lock", 2.0, 3.0, parent=vote)
    profiler = SpanProfiler()
    profiler.fold([lock, vote, run, Span("commit", 10.0, 14.0)])
    return profiler


class TestSpanFolding:
    def test_inclusive_is_total_duration_per_name(self):
        profiler = _folded_forest()
        assert profiler.inclusive() == pytest.approx(
            {"commit": 4.0, "lock": 1.0, "run": 10.0, "vote": 6.0}
        )
        assert profiler.counts() == {"commit": 1, "lock": 1, "run": 1, "vote": 1}

    def test_exclusive_subtracts_direct_children_only(self):
        profiler = _folded_forest()
        assert profiler.exclusive() == pytest.approx(
            {"commit": 4.0, "lock": 1.0, "run": 4.0, "vote": 5.0}
        )

    def test_exclusive_times_sum_to_root_total(self):
        profiler = _folded_forest()
        assert profiler.total() == pytest.approx(14.0)  # run 10 + commit 4
        assert sum(profiler.exclusive().values()) == pytest.approx(
            profiler.total()
        )

    def test_repeated_names_accumulate(self):
        profiler = SpanProfiler()
        for start in (0.0, 5.0):
            run = Span("run", start, start + 3.0)
            profiler.fold([Span("vote", start + 1.0, start + 2.0, parent=run), run])
        assert profiler.counts() == {"run": 2, "vote": 2}
        assert profiler.inclusive() == pytest.approx({"run": 6.0, "vote": 2.0})
        assert profiler.exclusive() == pytest.approx({"run": 4.0, "vote": 2.0})

    def test_stacks_key_full_root_first_path(self):
        profiler = _folded_forest()
        assert profiler.stacks() == pytest.approx(
            {
                ("commit",): 4.0,
                ("run",): 4.0,
                ("run", "vote"): 5.0,
                ("run", "vote", "lock"): 1.0,
            }
        )

    def test_open_span_cannot_be_folded(self):
        profiler = SpanProfiler()
        span = Span("run", 0.0)
        with pytest.raises(ObservabilityError, match="open span"):
            profiler.record_span(span)
        profiler.fold([span])  # folding a trace skips its open spans
        assert profiler.counts() == {}


class TestCollapsedStack:
    def test_round_trips_through_parse(self):
        profiler = _folded_forest()
        parsed = parse_collapsed(profiler.collapsed_stack())
        assert parsed == pytest.approx(profiler.stacks())

    def test_lines_sum_to_root_total(self):
        profiler = _folded_forest()
        values = parse_collapsed(profiler.collapsed_stack()).values()
        assert sum(values) == pytest.approx(profiler.total())

    def test_parse_merges_duplicate_paths_and_skips_blanks(self):
        assert parse_collapsed("a;b 1.5\n\na;b 0.5\n") == {("a", "b"): 2.0}

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ObservabilityError, match="no value separator"):
            parse_collapsed("just-one-token")
        with pytest.raises(ObservabilityError, match="non-numeric"):
            parse_collapsed("a;b not-a-number")


class TestProfilingContext:
    def test_off_by_default_and_restored(self):
        assert active_profiler() is None
        with profiling() as profiler:
            assert active_profiler() is profiler
            with profiling() as inner:  # innermost wins
                assert active_profiler() is inner
            assert active_profiler() is profiler
        assert active_profiler() is None

    def test_rejects_non_profiler(self):
        with pytest.raises(ObservabilityError, match="SpanProfiler"):
            with profiling(object()):  # type: ignore[arg-type]
                pass

    def test_spans_outside_profiling_are_not_folded(self, capsys):
        # `repro trace` folds the spans of its run into the installed
        # profiler only.
        assert main(["trace", "-n", "3"]) == 0
        with profiling() as profiler:
            assert main(["trace", "-n", "3"]) == 0
        assert main(["trace", "-n", "3"]) == 0
        capsys.readouterr()
        assert profiler.counts() == {"catch-up": 1, "in-doubt": 7, "run": 4, "vote": 4}
