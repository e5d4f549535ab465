"""The derived views reproduce what netsim used to emit three times.

``derived_views.json`` holds digests of outputs recorded while netsim
still wrote a flat trace log and tracked spans live, next to its causal
events.  The transcript, the spans and the sim-time profile are now
computed from the causal events alone and must equal those recordings:
byte for byte for every scripted transcript and for the profile, and
exactly (name, start, end, parent) for the spans of a traced cluster.
The causal export itself equals the recording once the two additions --
the topology roots and the ``finish`` event's ``reason`` -- are removed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.registry import protocol_names
from repro.obs import CausalDag, spans, transcript

from .test_query_reference import cluster_export
from .test_spans import assert_well_nested

RECORDED = json.loads(
    (Path(__file__).with_name("derived_views.json")).read_text(encoding="utf-8")
)
SCRIPTED = [(protocol, n) for protocol in protocol_names() for n in (3, 4, 5)]
TOPOLOGY_ROOTS = {"site-failure", "site-repair", "link-failure", "link-repair"}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_output(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize(("protocol", "n"), SCRIPTED)
def test_scripted_transcript_is_unchanged(capsys, protocol, n):
    text = cli_output(capsys, "trace", "--protocol", protocol, "-n", str(n))
    key = f"{protocol}/{n}"
    assert len(text.splitlines()) == RECORDED["transcript_lines"][key]
    assert sha256(text) == RECORDED["transcripts"][key]


@pytest.mark.parametrize(("protocol", "n"), SCRIPTED)
def test_export_adds_only_topology_roots_and_finish_reasons(capsys, protocol, n):
    export = cli_output(capsys, "trace", "--protocol", protocol, "-n", str(n), "--jsonl")
    kept = []
    roots = 0
    for line in export.splitlines():
        record = json.loads(line)
        fields = record["fields"]
        if fields["event"] in TOPOLOGY_ROOTS:
            assert fields["parents"] == []
            roots += 1
            continue
        if fields["event"] == "finish":
            assert isinstance(fields.pop("reason"), str)
        kept.append(json.dumps(record, sort_keys=True, default=str))
    assert roots == 2  # the workload fails one site and repairs it
    assert sha256("\n".join(kept) + "\n") == RECORDED["exports"][f"{protocol}/{n}"]


def test_profile_tables_and_stacks_are_unchanged(capsys):
    assert cli_output(capsys, "profile", "trace", "-n", "3") == RECORDED[
        "profile_trace_n3"
    ]


@pytest.fixture(scope="module")
def cluster_dag() -> CausalDag:
    """perfbench's traced ``simulate`` cluster: hybrid n=5, seed 2026."""
    return CausalDag.from_jsonl(cluster_export(200.0))


def test_cluster_spans_equal_the_live_spans(cluster_dag):
    derived = spans(cluster_dag)
    index = {id(span): i for i, span in enumerate(derived)}
    rows = [
        [
            span.name,
            repr(span.start),
            None if span.end is None else repr(span.end),
            None if span.parent is None else index[id(span.parent)],
        ]
        for span in derived
    ]
    recorded = RECORDED["cluster_spans"]
    assert len(rows) == recorded["count"]
    assert sum(span.end is None for span in derived) == recorded["open"]
    assert sha256(json.dumps(rows)) == recorded["sha256"]
    assert_well_nested(derived)


def test_cluster_transcript_is_unchanged(cluster_dag):
    text = "\n".join(record.render() for record in transcript(cluster_dag))
    assert len(text.splitlines()) == RECORDED["cluster_transcript"]["lines"]
    assert sha256(text) == RECORDED["cluster_transcript"]["sha256"]
