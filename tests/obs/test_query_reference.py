"""Indexed trace queries against their scan-based reference (lattice item 9).

:class:`CausalDag` indexes its events by kind, trace and run once, at
construction; ``query_reference`` keeps the queries and the catalog as
scans of ``dag.events``.  Both must return the same events in the same
order, and the same assertion failures in the same order, on a traced
message-level cluster and on every defect the catalog tests inject.  A
work-count guard keeps the catalog linear in the number of events.
"""

from __future__ import annotations

import itertools

import pytest

from repro import netsim, sim
from repro.core.registry import make_protocol
from repro.errors import ObservabilityError
from repro.obs.query import (
    CausalDag,
    CausalEvent,
    check_assertions,
    operation_stats,
)
from repro.types import site_names

from . import query_reference as reference
from .test_query import MUTATED_TRACES, on_kind, sample_log

#: A run id no event carries.
ABSENT_RUN = 10**9
#: The catalog may read an event's fields at most this often per event.
READS_PER_EVENT = 2


def cluster_export(horizon: float) -> str:
    """Traced hybrid n=5 cluster under Poisson failures (MTBF 100), as JSONL."""
    netsim.reset_run_ids()
    cluster = netsim.ReplicaCluster(
        make_protocol("hybrid", site_names(5)),
        initial_value=0,
        latency=0.002,
        trace=True,
        causal=True,
        causal_seed=2026,
    )
    driver = netsim.ClusterModelDriver(
        cluster,
        sim.Rates(0.01, 0.02),
        probe_rate=2.0,
        streams=sim.RandomStreams(2026),
    )
    driver.run(horizon)
    assert cluster.trace_log.dropped == 0
    return cluster.trace_log.to_jsonl()


def assert_same_queries(dag: CausalDag) -> None:
    """Every query and the whole catalog agree with the reference scans."""
    events = dag.events
    assert dag.traces() == reference.traces(dag)
    assert dag.roots() == reference.roots(dag)
    traces = (*reference.traces(dag), "absent/trace")
    for trace_id in traces:
        assert dag.trace_events(trace_id) == reference.trace_events(dag, trace_id)
    filters = {
        "kind": (*dict.fromkeys(e.kind for e in events), "absent-kind"),
        "trace_id": traces,
        "run_id": (
            *dict.fromkeys(e.run_id for e in events if e.run_id is not None),
            None,
            ABSENT_RUN,
        ),
    }
    for name, values in filters.items():
        for value in values:
            query = {name: value}
            assert dag.find(**query) == reference.find(dag, **query), query
    for (first, firsts), (second, seconds) in itertools.combinations(
        filters.items(), 2
    ):
        for a, b in itertools.product(firsts, seconds):
            query = {first: a, second: b}
            assert dag.find(**query) == reference.find(dag, **query), query
    assert operation_stats(dag) == reference.operation_stats(dag)
    assert check_assertions(dag) == reference.check_assertions(dag)


@pytest.fixture(scope="module")
def cluster_dag() -> CausalDag:
    return CausalDag.from_jsonl(cluster_export(25.0))


class TestAgreement:
    def test_traced_cluster(self, cluster_dag):
        assert len(cluster_dag) > 2000
        assert check_assertions(cluster_dag) == []
        assert_same_queries(cluster_dag)

    @pytest.mark.parametrize("defect", sorted(MUTATED_TRACES))
    def test_mutated_sample_trace(self, defect):
        dag = CausalDag.from_jsonl(MUTATED_TRACES[defect]())
        assert reference.check_assertions(dag)  # the defect is caught
        assert_same_queries(dag)

    def test_commit_without_run_id_checks_every_vote(self):
        dag = CausalDag.from_jsonl(
            on_kind("commit", lambda record: record["fields"].pop("run_id"))()
        )
        (commit,) = dag.find("commit")
        assert commit.run_id is None
        assert dag.find("vote", run_id=commit.run_id) == dag.find("vote")
        assert check_assertions(dag) == []
        assert_same_queries(dag)

    def test_vote_with_numeric_string_run_id(self):
        dag = CausalDag.from_jsonl(
            on_kind("vote", lambda record: record["fields"].update(run_id="1"))()
        )
        (vote,) = dag.find("vote")
        assert dag.find(run_id=1).count(vote) == 1
        assert_same_queries(dag)

    def test_vote_with_unreadable_run_id_raises_as_the_scan_does(self):
        dag = CausalDag.from_jsonl(
            on_kind("vote", lambda record: record["fields"].update(run_id="one"))()
        )
        assert dag.find("commit") == reference.find(dag, "commit")
        assert dag.find("commit", run_id=1) == reference.find(
            dag, "commit", run_id=1
        )
        queries = (
            (lambda: reference.find(dag, "vote", run_id=1),
             lambda: dag.find("vote", run_id=1)),
            (lambda: reference.check_assertions(dag),
             lambda: check_assertions(dag)),
        )
        for scan, indexed in queries:
            with pytest.raises(ObservabilityError) as expected:
                scan()
            with pytest.raises(ObservabilityError) as actual:
                indexed()
            assert str(actual.value) == str(expected.value)

    @pytest.mark.parametrize("run_id", [1, 1.0, True, 1.5, "1", float("nan")])
    def test_run_id_argument_compares_as_the_scan_does(self, run_id):
        dag = CausalDag.from_jsonl(sample_log().to_jsonl())
        matched = dag.find(run_id=run_id)
        assert matched == reference.find(dag, run_id=run_id)
        assert bool(matched) == (run_id == 1)


class TestLinearWork:
    @pytest.mark.parametrize("horizon", [25.0, 100.0])
    def test_catalog_field_reads_stay_linear(self, horizon, monkeypatch):
        dag = CausalDag.from_jsonl(cluster_export(horizon))
        reads = 0
        field = CausalEvent.field

        def counted(self, key, default=None):
            nonlocal reads
            reads += 1
            return field(self, key, default)

        monkeypatch.setattr(CausalEvent, "field", counted)
        assert check_assertions(dag) == []
        assert reads <= READS_PER_EVENT * len(dag), (reads, len(dag))
