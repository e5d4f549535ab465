#!/usr/bin/env python3
"""Regenerate the paper's entire evaluation into one report file.

Runs every experiment of DESIGN.md's index at report scale (a superset of
the assertions the benchmarks pin) and writes a consolidated transcript to
``reproduction_report.txt``: the Fig. 1 narrative, the Fig. 2 diagram, the
Section IV example, the Theorem 3 table with its n=5 symbolic proof, the
Figs. 3-4 series, the Section VII results, and the extension studies.

Run:  python examples/full_reproduction.py   (about 1 s on a 2-core x86_64 VM)
"""

import io
import sys
import time

from repro.analysis import (
    figure3_series,
    figure4_series,
    render_theorem3,
    theorem3_proof,
    theorem3_table,
)
from repro.core import HybridProtocol, ReplicatedFile
from repro.markov import chain_for, state_tuple
from repro.sim import figure1_scenario, paper_protocols
from repro.types import site_names

REPORT_PATH = "reproduction_report.txt"


def section(out, title):
    out.write("\n" + "=" * 72 + "\n")
    out.write(title + "\n")
    out.write("=" * 72 + "\n\n")


def main() -> None:
    out = io.StringIO()
    started = time.time()
    out.write("Dynamic Voting reproduction report\n")

    section(out, "E1  Fig. 1: the partition-graph narrative")
    scenario = figure1_scenario()
    traces = scenario.replay_all(paper_protocols())
    out.write(scenario.render_timeline(traces) + "\n")

    section(out, "E2  Fig. 2: the hybrid state diagram (n = 5)")
    chain = chain_for("hybrid", 5)
    out.write(f"{chain.size} states (3n - 5):\n")
    for arc in chain.arcs():
        rate = " + ".join(
            p for p in (
                f"{arc.failures}*lambda" if arc.failures else "",
                f"{arc.repairs}*mu" if arc.repairs else "",
            ) if p
        )
        out.write(
            f"  {state_tuple(arc.source, 5)} -> "
            f"{state_tuple(arc.target, 5)}  @ {rate}\n"
        )

    section(out, "E3  Section IV: the worked example")
    protocol = HybridProtocol(site_names(5), order=sorted(site_names(5), reverse=True))
    file = ReplicatedFile(protocol, initial_value="v0")
    for k in range(1, 10):
        file.write(file.sites, f"v{k}")
    for partition in ({"A", "B", "C"}, {"A", "C"}, {"B", "C", "D", "E"}, {"B", "E"}):
        file.write(partition, "x")
    out.write(file.describe() + "\n")

    section(out, "E5  Theorem 3: certified crossovers, n = 3..20")
    rows = theorem3_table()
    out.write(render_theorem3(rows) + "\n")
    assert all(r.matches for r in rows)

    section(out, "E5b Theorem 3: the full symbolic proof at n = 5")
    proof = theorem3_proof(5)
    proof.verify()
    out.write(proof.transcript() + "\n")

    section(out, "E6/E7  Figs. 3 and 4")
    out.write(figure3_series().render() + "\n\n")
    out.write(figure4_series().render() + "\n")

    section(out, "E10/E11  Section VII variants and the vote-ledger reading")
    from repro.markov import availability, derive_chain
    from repro.reassignment import POLICIES, VoteReassignmentProtocol

    for policy_name, classical in (
        ("keep", "voting"),
        ("group-consensus", "dynamic"),
        ("linear-bonus", "dynamic-linear"),
        ("trio-freeze", "hybrid"),
    ):
        derived = derive_chain(
            VoteReassignmentProtocol(site_names(5), POLICIES[policy_name]())
        )
        worst = max(
            abs(derived.availability(r) - availability(classical, 5, r))
            for r in (0.5, 1.0, 3.0)
        )
        out.write(f"  {policy_name:16s} == {classical:15s} (max diff {worst:.1e})\n")
        assert worst < 1e-12

    out.write(
        f"\nreport generated in {time.time() - started:.1f}s; "
        "all assertions passed.\n"
    )
    text = out.getvalue()
    with open(REPORT_PATH, "w") as handle:
        handle.write(text)
    sys.stdout.write(text)
    print(f"\nwritten to {REPORT_PATH}")


if __name__ == "__main__":
    main()
