"""Trace-query engine tests: round-trip, happens-before, paths, catalog."""

from __future__ import annotations

import json
import re
from collections.abc import Callable

import pytest

from repro.errors import ObservabilityError
from repro.obs import TraceLog
from repro.obs.causal import CausalTracer
from repro.obs.query import (
    CausalDag,
    assertion_names,
    check_assertions,
    operation_stats,
)


def sample_log() -> TraceLog:
    """A hand-driven two-site commit: submit -> send -> deliver -> vote
    -> votes-closed -> commit -> finish, with a vote joining the chain."""
    log = TraceLog()
    t = CausalTracer(log, seed=1)
    root = t.begin("op:1", "submit", 0.0, site="A", run_id=1, op="update",
                   phase="submit")
    lock = t.emit("lock-granted", 0.0, parents=(root,), site="A", run_id=1,
                  phase="lock")
    send = t.emit("send", 0.0, parents=(lock,), site="A", run_id=1,
                  phase="vote")
    deliver = t.emit("deliver", 0.01, parents=(send,), site="B", run_id=1,
                     phase="vote")
    vote = t.emit("vote", 0.02, parents=(deliver,), site="A", run_id=1,
                  voter="B", phase="vote")
    closed = t.emit("votes-closed", 0.04, parents=(root, vote), site="A",
                    run_id=1, phase="vote")
    commit = t.emit("commit", 0.04, parents=(root, closed), site="A",
                    run_id=1, version=1, participants=["A", "B"],
                    phase="decision")
    t.emit("finish", 0.04, parents=(root, commit), site="A", run_id=1,
           status="committed", phase="decision")
    return log


def on_kind(kind: str, change: Callable[[dict], None]) -> Callable[[], str]:
    """The sample trace's JSONL with ``change`` applied to its ``kind`` record."""

    def text() -> str:
        lines = []
        for line in sample_log().to_jsonl().splitlines():
            record = json.loads(line)
            if record["fields"]["event"] == kind:
                change(record)
            lines.append(json.dumps(record))
        return "\n".join(lines)

    return text


def _cut_vote_edge(record: dict) -> None:
    # Cutting the vote edge out of votes-closed leaves the commit with no
    # causal path to B's vote: the quorum guarantee breaks.
    fields = record["fields"]
    fields["parents"] = [p for p in fields["parents"] if not p.endswith("/4")]


def _install_outside_participants() -> str:
    log = sample_log()
    tracer = CausalTracer(log, seed=2)
    root = tracer.begin("op:9", "submit", 0.0, site="C", run_id=9)
    tracer.emit("install", 0.1, parents=(root,), site="C", run_id=9,
                version=1, participants=["A", "B"], phase="decision")
    return log.to_jsonl()


def _version_installed_by_two_runs() -> str:
    # Two runs each decide version 2 on a quorum of their own: a fork.
    log = sample_log()
    tracer = CausalTracer(log, seed=2)
    for run_id, site in ((7, "A"), (8, "B")):
        root = tracer.begin(f"op:{run_id}", "submit", 0.1, site=site, run_id=run_id)
        tracer.emit("install", 0.2, parents=(root,), site=site, run_id=run_id,
                    version=2, participants=[site], phase="decision")
    return log.to_jsonl()


def _cycle() -> str:
    # The root now parents on its own descendant, the commit.
    records = [json.loads(line) for line in sample_log().to_jsonl().splitlines()]
    (commit,) = [
        r["fields"]["event_id"] for r in records if r["fields"]["event"] == "commit"
    ]
    return on_kind(
        "submit", lambda record: record["fields"].update(parents=[commit])
    )()


#: The catalog's violating inputs: the sample trace with one defect each.
MUTATED_TRACES: dict[str, Callable[[], str]] = {
    "dangling-parent": on_kind(
        "finish", lambda record: record["fields"].update(parents=["missing/9"])
    ),
    "lamport-regression": on_kind(
        "commit", lambda record: record["fields"].update(lamport=1)
    ),
    "time-regression": on_kind("vote", lambda record: record.update(time=-1.0)),
    "second-root": on_kind(
        "lock-granted", lambda record: record["fields"].update(parents=[])
    ),
    "commit-without-vote": on_kind("votes-closed", _cut_vote_edge),
    "install-outside-participants": _install_outside_participants,
    "version-installed-by-two-runs": _version_installed_by_two_runs,
    "cycle": _cycle,
}


class TestRoundTrip:
    def test_jsonl_export_parses_to_identical_dag(self):
        log = sample_log()
        from_memory = CausalDag.from_events(log.events)
        from_jsonl = CausalDag.from_jsonl(log.to_jsonl())
        assert from_memory.events == from_jsonl.events

    def test_non_causal_lines_are_skipped(self):
        log = sample_log()
        log.record(9.0, "message", "A -> B VoteRequest(run 1)")
        dag = CausalDag.from_jsonl(log.to_jsonl())
        assert all(e.kind != "VoteRequest" for e in dag.events)
        assert len(dag.events) == 8

    def test_bad_json_raises(self):
        with pytest.raises(ObservabilityError, match="not JSON"):
            CausalDag.from_jsonl('{"category": "causal"\nnope')

    def test_malformed_causal_event_raises(self):
        line = json.dumps(
            {"category": "causal", "time": 0.0, "fields": {"event_id": "x/0"}}
        )
        with pytest.raises(ObservabilityError, match="malformed"):
            CausalDag.from_jsonl(line)

    @pytest.mark.parametrize("run_id", ["one", "1.5", float("nan"), float("inf")])
    def test_unreadable_run_id_raises_naming_the_event(self, run_id):
        dag = CausalDag.from_jsonl(
            on_kind("vote", lambda record: record["fields"].update(run_id=run_id))()
        )
        (vote,) = dag.find("vote")
        message = f"causal event '{vote.event_id}' has run_id {run_id!r}"
        with pytest.raises(ObservabilityError, match=re.escape(message)):
            vote.run_id
        with pytest.raises(ObservabilityError, match=re.escape(message)):
            check_assertions(dag)

    def test_duplicate_event_ids_raise(self):
        log = sample_log()
        text = log.to_jsonl()
        first = text.splitlines()[0]
        with pytest.raises(ObservabilityError, match="duplicate"):
            CausalDag.from_jsonl(text + "\n" + first)


class TestQueries:
    def test_happens_before_is_ancestor_reachability(self):
        dag = CausalDag.from_jsonl(sample_log().to_jsonl())
        (root,) = dag.roots()
        (commit,) = dag.find("commit")
        (vote,) = dag.find("vote")
        assert dag.happens_before(root.event_id, commit.event_id)
        assert dag.happens_before(vote.event_id, commit.event_id)
        assert not dag.happens_before(commit.event_id, vote.event_id)
        assert not dag.happens_before(commit.event_id, commit.event_id)

    def test_critical_path_segments_telescope_to_total(self):
        dag = CausalDag.from_jsonl(sample_log().to_jsonl())
        (finish,) = dag.find("finish")
        path = dag.critical_path(finish.event_id)
        assert path.events[0].kind == "submit"
        assert path.events[-1].kind == "finish"
        assert path.total == pytest.approx(0.04)
        assert sum(s.duration for s in path.segments) == pytest.approx(
            path.total, abs=1e-12
        )
        assert sum(path.by_phase().values()) == pytest.approx(
            path.total, abs=1e-12
        )

    def test_critical_path_takes_the_latest_parent(self):
        dag = CausalDag.from_jsonl(sample_log().to_jsonl())
        (closed,) = dag.find("votes-closed")
        path = dag.critical_path(closed.event_id)
        kinds = [e.kind for e in path.events]
        # The vote at t=0.02 gates votes-closed, not the t=0 root edge.
        assert kinds == [
            "submit", "lock-granted", "send", "deliver", "vote", "votes-closed"
        ]

    def test_operation_stats_fold_root_and_finish(self):
        log = sample_log()
        # A topology change roots a trace of its own; it is no operation.
        CausalTracer(log, seed=1).begin(
            "topology:1", "site-failure", 0.5, site="B", tick=False
        )
        dag = CausalDag.from_jsonl(log.to_jsonl())
        assert len(dag.roots()) == 2
        (row,) = operation_stats(dag)
        assert row.run_id == 1
        assert row.kind == "update"
        assert row.status == "committed"
        assert row.latency == pytest.approx(0.04)


class TestAssertionCatalog:
    def test_clean_trace_passes_every_assertion(self):
        dag = CausalDag.from_jsonl(sample_log().to_jsonl())
        assert check_assertions(dag) == []

    def test_unknown_assertion_name_raises(self):
        dag = CausalDag([])
        with pytest.raises(ObservabilityError, match="unknown assertion"):
            check_assertions(dag, ["no-such-assertion"])

    def test_catalog_names_are_stable(self):
        assert assertion_names() == (
            "parents-resolve",
            "acyclic",
            "lamport-monotone",
            "time-monotone",
            "single-root",
            "commit-after-votes",
            "install-within-participants",
            "one-run-per-version",
        )

    def _failures(self, defect: str) -> list:
        return check_assertions(CausalDag.from_jsonl(MUTATED_TRACES[defect]()))

    def test_dangling_parent_fails_parents_resolve(self):
        failures = self._failures("dangling-parent")
        assert any(f.assertion == "parents-resolve" for f in failures)

    def test_lamport_regression_is_reported(self):
        failures = self._failures("lamport-regression")
        assert any(f.assertion == "lamport-monotone" for f in failures)

    def test_time_regression_is_reported(self):
        failures = self._failures("time-regression")
        assert any(f.assertion == "time-monotone" for f in failures)

    def test_second_root_fails_single_root(self):
        failures = self._failures("second-root")
        assert any(f.assertion == "single-root" for f in failures)

    def test_commit_without_causal_vote_fails(self):
        failures = self._failures("commit-without-vote")
        assert any(f.assertion == "commit-after-votes" for f in failures)

    def test_install_outside_participants_fails(self):
        failures = self._failures("install-outside-participants")
        offending = [
            f for f in failures if f.assertion == "install-within-participants"
        ]
        assert len(offending) == 1
        assert "site C" in offending[0].detail
        assert offending[0].events  # the offending edge is named

    def test_version_installed_by_two_runs_fails(self):
        failures = self._failures("version-installed-by-two-runs")
        (offending,) = failures
        assert offending.assertion == "one-run-per-version"
        assert offending.detail == (
            "version 2 installed by run 7 at A and by run 8 at B"
        )
        assert len(offending.events) == 2

    def test_cycle_is_detected(self):
        failures = self._failures("cycle")
        assert any(f.assertion == "acyclic" for f in failures)
