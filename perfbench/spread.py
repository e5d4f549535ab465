"""Measure the benchmark's own steadiness: runs over seeds, spread per metric.

    python3 perfbench/spread.py --runs perfbench-runs.jsonl --seeds 1-10 --sets 2
    python3 perfbench/spread.py --runs perfbench-runs.jsonl --report

The first form appends one JSON line per ``run.py`` run to ``--runs``
(sets, then seeds, then every workload of BENCHMARK.json, so host drift
spreads over all of them), numbering its sets on from the last set
already in the file; the second only reads it.  The report gives, per
workload and end-to-end metric, each set's median and quartiles
(``statistics.quantiles(values, n=4)``), the spread (quartile distance
over the median) and the gap between each set's median and the first
set's, in the markdown of ``perfbench/STEADINESS.md``.
Traced runs (``--trace 1``) add a table of the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def collect(path: Path, seed_list: list[int], sets: int, trace: int) -> None:
    lines = path.read_text().splitlines() if path.exists() else []
    first = max((json.loads(line)["set"] for line in lines if line.strip()), default=0) + 1
    with path.open("a") as sink:
        for set_index in range(first, first + sets):
            for seed in seed_list:
                for workload in (w["name"] for w in BENCHMARK["workloads"]):
                    done = subprocess.run(
                        [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
                         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)],
                        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=False,
                    )
                    lines = done.stdout.strip().splitlines()
                    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
                    tree = next((w[5:] for w in " ".join(lines[:1]).split() if w.startswith("tree=")), None)
                    row = {"set": set_index, "workload": workload, "seed": seed, "trace": trace,
                           "tree": tree, "exit": done.returncode, "result": result}
                    sink.write(json.dumps(row) + "\n")
                    sink.flush()
                    print(f"set {set_index} seed {seed} {workload}: exit {done.returncode}",
                          file=sys.stderr)


def report(path: Path) -> str:
    rows = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    untraced = [r for r in rows if r["trace"] == 0]
    lines = [
        "| workload | metric | set | runs | median | Q1 | Q3 | IQR/median | bound | gap to first set |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ] if untraced else []
    for workload in dict.fromkeys(r["workload"] for r in untraced):
        for metric, bound in bounds.items():
            first = None
            for set_index in sorted({r["set"] for r in untraced}):
                values = [
                    r["result"]["metrics"][metric]["value"]
                    for r in untraced
                    if r["workload"] == workload and r["set"] == set_index and r["result"]
                ]
                if len(values) < 2:
                    continue
                median = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else 0.0
                first = median if first is None else first
                gap = (median - first) / first if first else 0.0
                lines.append(
                    f"| {workload} | {metric} | {set_index} | {len(values)} | {median:.6g} | "
                    f"{q1:.6g} | {q3:.6g} | {spread:.3f} | {bound} | {gap:+.3f} |"
                )
    traced = [r for r in rows if r["trace"] == 1 and r["result"]]
    if traced:
        lines += ["", "| workload | traced runs | trace_overhead median | min | max | "
                  "traced_wall_s median | unattributed share |", "|---|---|---|---|---|---|---|"]
    for workload in dict.fromkeys(r["workload"] for r in traced):
        metrics = [r["result"]["metrics"] for r in traced if r["workload"] == workload]
        overhead = [m["trace_overhead"]["value"] for m in metrics]
        wall = statistics.median(m["traced_wall_s"]["value"] for m in metrics)
        share = statistics.median(
            m["unattributed_s"]["value"] / m["traced_wall_s"]["value"] for m in metrics
        )
        lines.append(
            f"| {workload} | {len(metrics)} | {statistics.median(overhead):.3f} | "
            f"{min(overhead):.3f} | {max(overhead):.3f} | {wall:.3f} | {share:.4f} |"
        )
    failures = [
        f"{r['workload']} seed {r['seed']} set {r['set']}"
        for r in rows
        if not r["result"] or not r["result"]["correct"]
    ]
    trees = sorted({str(r.get("tree")) for r in rows})
    lines.append("")
    lines.append(f"{len(rows)} runs of {', '.join(trees)}; "
                 f"runs without a correct result: {failures or 'none'}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=Path, required=True, help="JSON-lines file of runs")
    parser.add_argument("--report", action="store_true", help="only report on --runs")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.report:
        collect(args.runs, args.seeds, args.sets, args.trace)
    print(report(args.runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
