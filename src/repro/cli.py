"""Command-line interface: regenerate the paper's artifacts from a shell.

Subcommands map to the experiment index of DESIGN.md::

    repro theorem3                    # E5: the crossover table
    repro figure 3 / repro figure 4   # E6/E7: normalised availability
    repro fig1                        # E1: partition-graph replay
    repro chain --protocol hybrid -n 5  # E2: state diagram dump
    repro compare -n 5 -r 0.5 1 2 5   # availability matrix
    repro simulate --protocol hybrid -n 5 -r 1.0  # E9: MC vs analytic
    repro simulate --backend vectorized -n 9      # batched numpy backend
    repro crossover --first hybrid --second dynamic -n 5
    repro lint src/repro                # replint static analysis
    repro check --quick                 # explicit-state model checking
    repro trace --protocol hybrid -n 3  # message-level protocol trace
    repro trace causal -n 3 --jsonl     # causal-DAG export
    repro trace critical-path -n 3      # per-phase commit latency
    repro trace assert --input ce.jsonl # happens-before assertion catalog
    repro validate-manifest out.json    # check a run manifest's schema

Observability: ``simulate`` and ``compare`` accept ``--metrics`` (print
the metric registry) and ``--manifest PATH`` (write a machine-readable
run manifest, docs/OBSERVABILITY.md); ``trace --jsonl`` emits the
structured event log one JSON object per line, and the ``trace`` causal
modes reconstruct the operation DAG from that export alone
(docs/OBSERVABILITY.md, "Causal tracing & SLOs").
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from importlib.metadata import PackageNotFoundError
from importlib.metadata import version as _pkg_version
from pathlib import Path

from .analysis import (
    certified_crossover,
    comparison_table,
    figure3_series,
    figure4_series,
    render_series,
    render_theorem3,
    theorem3_proof,
    theorem3_table,
)
from .bench import (
    BenchRecord,
    Tolerance,
    append_records,
    compare_runs,
    load_history,
    load_records,
    render_comparison,
    render_history,
    write_run,
    write_trajectory,
)
from .check import runner as check_runner
from .core import make_protocol
from .errors import BenchError, ReproError
from .lint import runner as lint_runner
from .markov import (
    availability,
    availability_grid,
    availability_symbolic,
    chain_for,
    mean_time_to_blocking,
    state_tuple,
    transient_availability,
)
from .netsim import ReplicaCluster, reset_run_ids
from .obs import (
    CausalDag,
    MetricsRegistry,
    RunManifest,
    SpanProfiler,
    Stopwatch,
    assertion_names,
    check_assertions,
    operation_stats,
    profiling,
    use,
)
from .obs import manifest as obs_manifest
from .obs.trace import TraceLog
from .sim import estimate_availability, figure1_scenario, paper_protocols
from .types import site_names

__all__ = ["main", "build_parser"]


def _version() -> str:
    """The installed distribution version, or the source tree's fallback."""
    try:
        return _pkg_version("repro")
    except PackageNotFoundError:  # running from a source checkout
        from . import __version__

        return __version__


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dynamic voting replica control: tables, figures, simulations.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theorem3", help="regenerate the Theorem 3 crossover table")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=20)

    p = sub.add_parser("figure", help="regenerate Fig. 3 or Fig. 4 series")
    p.add_argument("number", type=int, choices=(3, 4))
    p.add_argument("--steps", type=int, default=20)

    sub.add_parser("fig1", help="replay the Fig. 1 partition graph")

    p = sub.add_parser("chain", help="dump a protocol's Markov chain (Fig. 2)")
    p.add_argument("--protocol", default="hybrid")
    p.add_argument("-n", "--sites", type=int, default=5)

    p = sub.add_parser(
        "grid",
        help="availability across a ratio grid (lump-then-solve pipeline)",
        description=(
            "Solves one protocol's availability over a ratio grid "
            "through the large-n pipeline: the chain is derived lumped "
            "(O(n) states) and the steady states are solved dense or "
            "sparse.  --solver forces a backend; auto routes by chain "
            "size (docs/PERFORMANCE.md, 'Large-n solvers')."
        ),
    )
    p.add_argument("--protocol", default="dynamic")
    p.add_argument("-n", "--sites", type=int, default=25)
    p.add_argument("--start", type=float, default=0.5,
                   help="first repair/failure ratio (default 0.5)")
    p.add_argument("--stop", type=float, default=20.0,
                   help="last repair/failure ratio (default 20.0)")
    p.add_argument("--points", type=int, default=40,
                   help="number of grid points (default 40)")
    p.add_argument("--solver", choices=("auto", "dense", "sparse"),
                   default="auto",
                   help="steady-state backend (default auto)")
    p.add_argument("--json", action="store_true",
                   help="emit the grid as JSON instead of a text table")

    p = sub.add_parser("compare", help="availability matrix at fixed n")
    p.add_argument("-n", "--sites", type=int, default=5)
    p.add_argument("-r", "--ratios", type=float, nargs="+",
                   default=[0.5, 1.0, 2.0, 5.0, 10.0])
    p.add_argument("--json", action="store_true",
                   help="emit the matrix as JSON instead of a text table")
    p.add_argument("--manifest", metavar="PATH",
                   help="write a run manifest (docs/OBSERVABILITY.md)")

    p = sub.add_parser("simulate", help="Monte-Carlo vs analytic availability")
    p.add_argument("--protocol", default="hybrid")
    p.add_argument("-n", "--sites", type=int, default=5)
    p.add_argument("-r", "--ratio", type=float, default=1.0)
    p.add_argument("--events", type=int, default=20_000)
    p.add_argument("--replicates", type=int, default=8)
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the Monte-Carlo replicates "
             "(0 = all CPUs; default: REPRO_WORKERS or 1; results are "
             "bitwise identical at any setting, docs/PERFORMANCE.md)",
    )
    p.add_argument(
        "--backend", choices=("scalar", "vectorized"), default="scalar",
        help="Monte-Carlo backend: the scalar reference oracle or the "
             "structure-of-arrays numpy backend (docs/PERFORMANCE.md, "
             "'Backends')",
    )
    p.add_argument(
        "--batch-size", type=int, default=None,
        help="replicates per vectorized batch (default 256; affects "
             "memory and throughput only, never results)",
    )
    p.add_argument("--metrics", action="store_true",
                   help="print the metric registry after the run")
    p.add_argument("--manifest", metavar="PATH",
                   help="write a run manifest (docs/OBSERVABILITY.md)")

    p = sub.add_parser("crossover", help="certified crossover of two protocols")
    p.add_argument("--first", default="hybrid")
    p.add_argument("--second", default="dynamic-linear")
    p.add_argument("-n", "--sites", type=int, default=5)

    p = sub.add_parser(
        "proof", help="the full symbolic Theorem 3 proof for one n"
    )
    p.add_argument("-n", "--sites", type=int, default=5)

    p = sub.add_parser(
        "artifact", help="write the machine-readable results artifact"
    )
    p.add_argument("--output", default="reproduction_artifact.json")
    p.add_argument("--n-max", type=int, default=8)

    p = sub.add_parser(
        "lint",
        help="run replint, the repo's AST-based invariant linter",
        description=(
            "Static analysis enforcing the paper's conventions (REP001-"
            "REP008): RNG/substream hygiene, no wall clock in simulated "
            "code, metadata immutability, registry coverage, layering.  "
            "See docs/LINTING.md."
        ),
    )
    lint_runner.configure_parser(p)

    p = sub.add_parser(
        "check",
        help="explicit-state model checking of the netsim protocol code",
        description=(
            "Explores every message-delivery order, timer race, and "
            "(budgeted) crash/recover/partition event up to a depth bound, "
            "checking invariant oracles (fork freedom, participant "
            "exclusivity, distinguished-partition mutual exclusion, ...) "
            "in each reachable state.  Violations are minimized into "
            "replayable JSONL schedules.  See docs/CHECKING.md."
        ),
    )
    check_runner.configure_parser(p)

    p = sub.add_parser(
        "trace",
        help="trace a scripted message-level protocol run",
        description=(
            "Runs a fixed, deterministic netsim workload (update; fail the "
            "last site; update under failure; repair and restart; read) and "
            "prints the structured trace.  With --jsonl every event is one "
            "JSON object per line for machine consumption.  The optional "
            "mode switches to the causal-trace toolchain "
            "(docs/OBSERVABILITY.md): `causal` exports the causally-"
            "parented event DAG, `critical-path` reconstructs each "
            "committed operation's submit->commit path with a per-phase "
            "sim-time breakdown, and `assert` runs the happens-before "
            "assertion catalog (exit 1 with the offending edges on "
            "violation).  All three read an existing export via --input "
            "FILE -- including `repro check --counterexample` files -- or "
            "trace the scripted workload when --input is omitted."
        ),
    )
    p.add_argument(
        "mode", nargs="?", default=None,
        choices=("causal", "critical-path", "assert"),
        help="causal-trace mode (omit for the classic rendered trace)",
    )
    p.add_argument("--protocol", default="hybrid")
    p.add_argument("-n", "--sites", type=int, default=3)
    p.add_argument("--jsonl", action="store_true",
                   help="emit events as JSON lines instead of rendered text")
    p.add_argument(
        "--categories", nargs="+", default=None,
        metavar="CAT",
        help="restrict output to these event categories "
             "(run, topology, message, lock, span, causal)",
    )
    p.add_argument(
        "--input", default=None, metavar="FILE",
        help="read a causal JSONL export instead of running the scripted "
             "workload (causal-trace modes only)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="seed keying the deterministic causal trace ids (default 0)",
    )

    p = sub.add_parser(
        "validate-manifest",
        help="validate run-manifest files against the schema",
    )
    p.add_argument("paths", nargs="+", metavar="MANIFEST")

    p = sub.add_parser(
        "profile",
        help="run a simulate/compare/trace invocation under the profiler",
        description=(
            "Re-enters the CLI with the given invocation while a "
            "SpanProfiler is installed: sim-time spans fold into "
            "deterministic inclusive/exclusive tables and a collapsed-"
            "stack export (flamegraph-ready), and the wall-clock hot "
            "paths (batched solves, Horner sweeps, vectorized batches, "
            "pool fan-out) are attributed separately.  See "
            "docs/BENCHMARKING.md."
        ),
    )
    p.add_argument(
        "--output", metavar="PATH",
        help="write the collapsed-stack profile to PATH instead of stdout",
    )
    p.add_argument(
        "profiled", nargs=argparse.REMAINDER, metavar="COMMAND ...",
        help="the repro invocation to profile (simulate, compare, or trace)",
    )

    p = sub.add_parser(
        "bench",
        help="performance trajectory: run suites, compare records, report",
        description=(
            "The perf-regression loop of docs/BENCHMARKING.md: `run` "
            "measures a suite and appends bench records to the JSONL "
            "history (regenerating the repo-root BENCH_perf.json "
            "trajectory), `compare` gates a current run against a "
            "baseline with noise-aware tolerances, `report` renders the "
            "history."
        ),
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    b = bench_sub.add_parser("run", help="run a benchmark suite, record results")
    b.add_argument("--suite", choices=("perf",), default="perf")
    b.add_argument("--seed", type=int, default=2026)
    b.add_argument(
        "--quick", action="store_true",
        help="test-sized workloads (seconds, for CI smoke and the tests)",
    )
    b.add_argument(
        "--record", metavar="PATH",
        help="also write this run's records as one bench-run JSON document",
    )
    b.add_argument(
        "--history", metavar="PATH",
        default="benchmarks/manifests/bench_history.jsonl",
        help="append-only JSONL history (default: %(default)s; '-' disables)",
    )
    b.add_argument(
        "--trajectory", metavar="PATH", default="BENCH_perf.json",
        help="regenerated trajectory file (default: %(default)s; '-' disables)",
    )

    b = bench_sub.add_parser(
        "compare", help="gate a current bench run against a baseline"
    )
    b.add_argument("baseline", help="baseline records (.json run file or .jsonl history)")
    b.add_argument("current", help="current records (.json run file or .jsonl history)")
    b.add_argument(
        "--tolerance", type=float, default=0.35,
        help="relative movement allowed before a timing regresses "
             "(default: %(default)s)",
    )
    b.add_argument(
        "--floor", type=float, default=0.005,
        help="seconds below which timings are noise and skipped "
             "(default: %(default)s)",
    )
    b.add_argument("--format", choices=("text", "md"), default="text")

    b = bench_sub.add_parser("report", help="render the bench history")
    b.add_argument(
        "--history", metavar="PATH",
        default="benchmarks/manifests/bench_history.jsonl",
    )
    b.add_argument("--suite", default=None, help="restrict to one suite")
    b.add_argument("--format", choices=("md", "text"), default="md")

    p = sub.add_parser(
        "transient", help="availability over time from a healthy start"
    )
    p.add_argument("--protocol", default="hybrid")
    p.add_argument("-n", "--sites", type=int, default=5)
    p.add_argument("-r", "--ratio", type=float, default=1.0)
    p.add_argument(
        "-t", "--times", type=float, nargs="+",
        default=[0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0],
    )

    return parser


#: Protocol columns of ``repro compare`` (mirrors ``comparison_table``).
_COMPARE_PROTOCOLS = ("voting", "dynamic", "dynamic-linear", "hybrid")


def _scripted_workload(
    protocol: str,
    n_sites: int,
    *,
    trace: bool = False,
    causal: bool = False,
    seed: int = 0,
) -> ReplicaCluster:
    """Run the fixed ``repro trace`` workload; returns the settled cluster.

    Deterministic by construction (the message network is driven by
    simulated time only): update; fail the highest-named site; update
    under failure; repair and restart; read.  The tracing knobs are
    passed through so the same workload serves the rendered trace, the
    causal-trace modes, and the causal-overhead bench scenario.
    """
    sites = site_names(n_sites)
    cluster = ReplicaCluster(
        make_protocol(protocol, sites),
        initial_value="v0",
        trace=trace,
        causal=causal,
        causal_seed=seed,
    )
    cluster.submit_update(sites[0], "v1")
    cluster.settle()
    cluster.fail_site(sites[-1])
    cluster.submit_update(sites[0], "v2")
    cluster.settle()
    cluster.repair_site(sites[-1])
    cluster.settle()
    cluster.submit_read(sites[min(1, n_sites - 1)])
    cluster.settle()
    return cluster


def _scripted_trace(
    protocol: str, n_sites: int, *, causal: bool = False, seed: int = 0
) -> TraceLog:
    """The trace log of one scripted workload (``trace=True`` always)."""
    cluster = _scripted_workload(
        protocol, n_sites, trace=True, causal=causal, seed=seed
    )
    log = cluster.trace_log
    assert log is not None  # trace=True above
    return log


def _causal_jsonl(args: argparse.Namespace) -> str:
    """The causal JSONL text a trace mode operates on.

    ``--input`` reads an existing export (netsim telemetry or a
    ``repro check`` counterexample -- one shared format); otherwise the
    scripted workload runs with causal tracing on and its export is used.
    Either way downstream queries see *only* the JSONL, proving the DAG
    is reconstructible from the export alone.
    """
    if args.input is not None:
        return Path(args.input).read_text(encoding="utf-8")
    # Rewind the process-wide run-id counter so same-seed exports are
    # byte-identical however many traces ran before in this process.
    reset_run_ids()
    log = _scripted_trace(
        args.protocol, args.sites, causal=True, seed=args.seed
    )
    return log.to_jsonl()


def _run_trace(args: argparse.Namespace) -> int:
    """``repro trace`` and its causal-trace modes."""
    if args.mode is None:
        log = _scripted_trace(args.protocol, args.sites)
        categories = tuple(args.categories) if args.categories else None
        if args.jsonl:
            for line in log.iter_jsonl(categories):
                print(line)
        else:
            print(log.render(categories))
        return 0
    text = _causal_jsonl(args)
    dag = CausalDag.from_jsonl(text)
    if args.mode == "causal":
        if args.jsonl:
            for line in text.splitlines():
                if line.strip() and json.loads(line).get("category") == "causal":
                    print(line)
            return 0
        for trace_id in dag.traces():
            events = dag.trace_events(trace_id)
            root = events[0]
            title = root.field("op") or root.kind
            print(f"trace {trace_id} run={root.run_id} {title}:")
            for event in events:
                parents = ", ".join(event.parents) or "-"
                print(
                    f"  t={event.time:8.4f} L={event.lamport:<3d} "
                    f"{event.event_id}  {event.kind:<18} "
                    f"site={event.site or '-':<4} <- {parents}"
                )
        return 0
    if args.mode == "critical-path":
        stats = {row.trace_id: row for row in operation_stats(dag)}
        commits = dag.find("commit")
        if not commits:
            print("no committed operations in the causal trace")
            return 0
        for commit in commits:
            finishes = dag.find("finish", trace_id=commit.trace_id)
            target = finishes[-1] if finishes else commit
            path = dag.critical_path(target.event_id)
            row = stats.get(commit.trace_id)
            kind = row.kind if row is not None else "?"
            print(
                f"run {commit.run_id} ({kind}) committed "
                f"version {commit.field('version')}: "
                f"latency {path.total:.4f}"
            )
            print(path.render())
        return 0
    # args.mode == "assert"
    failures = check_assertions(dag)
    if failures:
        for failure in failures:
            print(f"FAIL {failure.describe()}")
        print(f"{len(failures)} causal assertion(s) violated", file=sys.stderr)
        return 1
    print(
        f"causal trace clean: {len(dag.events)} events, "
        f"{len(dag.traces())} traces, "
        f"{len(assertion_names())} assertions checked"
    )
    return 0


#: Subcommands `repro profile` may wrap: the workloads worth attributing.
_PROFILEABLE = ("simulate", "compare", "trace")


def _run_profile(args: argparse.Namespace) -> int:
    """``repro profile``: re-enter the CLI under an installed profiler."""
    target = list(args.profiled)
    if target and target[0] == "--":  # argparse REMAINDER separator
        target = target[1:]
    if not target or target[0] not in _PROFILEABLE:
        choices = ", ".join(_PROFILEABLE)
        print(
            f"repro profile: give an invocation to profile ({choices}), "
            f"e.g. `repro profile simulate --protocol hybrid -n 5`",
            file=sys.stderr,
        )
        return 2
    profiler = SpanProfiler()
    with profiling(profiler):
        code = main(target)
    collapsed = profiler.collapsed_stack()
    print()
    print(profiler.render())
    if args.output:
        Path(args.output).write_text(
            collapsed + "\n" if collapsed else "", encoding="utf-8"
        )
        print(f"wrote collapsed-stack profile {args.output}", file=sys.stderr)
    elif collapsed:
        print()
        print("collapsed stacks (exclusive sim-time, flamegraph-ready):")
        print(collapsed)
    return code


def _perf_scenario(
    suite: str,
    scenario: str,
    *,
    seed: int | None,
    params: dict,
    run,
    timings_from,
) -> BenchRecord:
    """Measure one suite scenario under a fresh registry and profiler.

    ``run(registry)`` executes the workload; ``timings_from(result,
    seconds)`` maps its return value and wall time to the timing table.
    The scenario's hot-path wall attributions ride along as soft
    ``profile.<name>_s`` timings, linking the profile to the record.
    """
    registry = MetricsRegistry()
    profiler = SpanProfiler()
    stopwatch = Stopwatch()
    with use(registry), profiling(profiler):
        result = run(registry)
    seconds = max(stopwatch.seconds, 1e-9)
    timings = dict(timings_from(result, seconds))
    for name, entry in profiler.wall_table().items():
        timings[f"profile.{name}_s"] = entry["seconds"]
    return BenchRecord.collect(
        suite,
        scenario,
        seed=seed,
        params=params,
        registry=registry,
        timings=timings,
        manifest=f"bench:{scenario}",
    )


def _perf_suite_records(seed: int, quick: bool) -> list[BenchRecord]:
    """The ``perf`` suite: the fast paths ROADMAP protects, measured.

    The scenarios -- scalar Monte-Carlo, the vectorized backend, the
    batched Markov grid, the Horner symbolic sweep, the n=25
    lump-then-solve pipeline (cold build and sparse solve), and the
    netsim causal overhead -- mirror ``benchmarks/bench_perf_scaling.py``
    and docs/PERFORMANCE.md.  ``quick`` shrinks the
    workloads to test size without changing the scenario ids, so quick
    and full runs still compare (their params differ, which disables the
    determinism-drift check across the two modes).
    """
    from .markov import clear_symbolic_cache

    records = []
    replicates, events, burn = (4, 400, 100) if quick else (6, 4_000, 1_000)
    mc_params = {
        "protocol": "hybrid",
        "n_sites": 5,
        "ratio": 1.0,
        "replicates": replicates,
        "events": events,
        "burn_in_events": burn,
        "workers": 1,
    }
    records.append(
        _perf_scenario(
            "perf",
            "mc.scalar.hybrid.n5",
            seed=seed,
            params={**mc_params, "backend": "scalar"},
            run=lambda registry: estimate_availability(
                "hybrid", 5, 1.0,
                replicates=replicates, events=events, burn_in_events=burn,
                seed=seed, metrics=registry, workers=1, backend="scalar",
            ),
            timings_from=lambda result, seconds: {
                "wall_s": seconds,
                "events_per_sec": replicates * (events + burn) / seconds,
            },
        )
    )
    v_replicates, v_events, v_burn = (
        (32, 250, 100) if quick else (256, 2_000, 1_000)
    )
    records.append(
        _perf_scenario(
            "perf",
            "mc.vectorized.hybrid.n5",
            seed=seed,
            params={
                **mc_params,
                "backend": "vectorized",
                "replicates": v_replicates,
                "events": v_events,
                "burn_in_events": v_burn,
            },
            run=lambda registry: estimate_availability(
                "hybrid", 5, 1.0,
                replicates=v_replicates, events=v_events,
                burn_in_events=v_burn, seed=seed, metrics=registry,
                workers=1, backend="vectorized",
            ),
            timings_from=lambda result, seconds: {
                "wall_s": seconds,
                "events_per_sec": v_replicates * (v_events + v_burn) / seconds,
            },
        )
    )
    grid_points = 50 if quick else 200
    grid = [0.1 + 19.9 * i / (grid_points - 1) for i in range(grid_points)]
    grid_protocols = ("dynamic", "dynamic-linear", "hybrid")
    clear_symbolic_cache()
    records.append(
        _perf_scenario(
            "perf",
            "markov.grid.batched.n5",
            seed=None,
            params={
                "protocols": list(grid_protocols),
                "n_sites": 5,
                "grid_points": grid_points,
            },
            run=lambda registry: [
                availability_grid(name, 5, grid, prefer_symbolic=False)
                for name in grid_protocols
            ],
            timings_from=lambda result, seconds: {
                "solve_batch_s": seconds,
                "points_per_sec": len(grid_protocols) * grid_points / seconds,
            },
        )
    )
    availability_symbolic("hybrid", 5)  # populate the cache outside the timer
    records.append(
        _perf_scenario(
            "perf",
            "markov.grid.horner.n5",
            seed=None,
            params={"protocol": "hybrid", "n_sites": 5, "grid_points": grid_points},
            run=lambda registry: availability_grid(
                "hybrid", 5, grid, prefer_symbolic=True
            ),
            timings_from=lambda result, seconds: {
                "horner_sweep_s": seconds,
                "points_per_sec": grid_points / seconds,
            },
        )
    )
    clear_symbolic_cache()
    from .markov.availability import _chain

    large_points = 10 if quick else 60
    large_grid = [
        0.1 + 19.9 * i / (large_points - 1) for i in range(large_points)
    ]
    large_protocols = ("dynamic", "hybrid", "optimal-candidate")

    def _lumped_n25(registry: MetricsRegistry) -> list[list[float]]:
        _chain.cache_clear()  # measure the streaming lumped build too
        return [
            availability_grid(name, 25, large_grid, prefer_symbolic=False)
            for name in large_protocols
        ]

    records.append(
        _perf_scenario(
            "perf",
            "markov.lumped.n25",
            seed=None,
            params={
                "protocols": list(large_protocols),
                "n_sites": 25,
                "grid_points": large_points,
            },
            run=_lumped_n25,
            timings_from=lambda result, seconds: {
                "lumped_wall_s": seconds,
                "points_per_sec": (
                    len(large_protocols) * large_points / seconds
                ),
            },
        )
    )
    for name in large_protocols:  # prebuild so only the solve is timed
        availability(name, 25, 1.0)
    records.append(
        _perf_scenario(
            "perf",
            "markov.sparse.n25",
            seed=None,
            params={
                "protocols": list(large_protocols),
                "n_sites": 25,
                "grid_points": large_points,
                "solver": "sparse",
            },
            run=lambda registry: [
                availability_grid(
                    name, 25, large_grid,
                    prefer_symbolic=False, solver="sparse",
                )
                for name in large_protocols
            ],
            timings_from=lambda result, seconds: {
                "sparse_wall_s": seconds,
                "points_per_sec": (
                    len(large_protocols) * large_points / seconds
                ),
            },
        )
    )
    rounds, reps = (6, 2) if quick else (30, 3)

    def _causal_overhead(registry: MetricsRegistry) -> dict[str, float]:
        """Min-of-reps wall time of the scripted netsim workload per mode."""

        def batch(trace: bool, causal: bool) -> float:
            best = float("inf")
            for _ in range(reps):
                stopwatch = Stopwatch()
                for _ in range(rounds):
                    _scripted_workload(
                        "hybrid", 5, trace=trace, causal=causal, seed=seed
                    )
                best = min(best, stopwatch.seconds)
            return best

        return {
            "off": batch(False, False),
            "trace": batch(True, False),
            "causal": batch(True, True),
        }

    records.append(
        _perf_scenario(
            "perf",
            "netsim.causal.overhead.n5",
            seed=seed,
            params={
                "protocol": "hybrid",
                "n_sites": 5,
                "rounds": rounds,
                "reps": reps,
            },
            run=_causal_overhead,
            timings_from=lambda result, seconds: {
                "netsim_off_s": result["off"],
                "netsim_trace_s": result["trace"],
                "netsim_causal_s": result["causal"],
                "causal_overhead_ratio": result["causal"] / result["trace"],
            },
        )
    )
    return records


def _cmd_grid(args: argparse.Namespace) -> int:
    """``repro grid``: one protocol's availability curve, any solver.

    Runs under a private metrics registry and prints which solve paths
    actually fired, so forcing ``--solver sparse`` is verifiable from
    the output alone.
    """
    if args.points < 1:
        print("need at least one grid point", file=sys.stderr)
        return 2
    if args.start <= 0 or args.stop < args.start:
        print("need 0 < start <= stop", file=sys.stderr)
        return 2
    if args.points == 1:
        ratios = [float(args.start)]
    else:
        step = (args.stop - args.start) / (args.points - 1)
        ratios = [args.start + step * i for i in range(args.points)]
    registry = MetricsRegistry()
    stopwatch = Stopwatch()
    try:
        with use(registry):
            values = availability_grid(
                args.protocol,
                args.sites,
                ratios,
                prefer_symbolic=False,
                solver=args.solver,
            )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    seconds = stopwatch.seconds
    solves = {
        mode: registry.counter(f"markov.solve.{mode}").value
        for mode in ("batched", "sparse", "numeric")
        if registry.counter(f"markov.solve.{mode}").value
    }
    if args.json:
        print(
            json.dumps(
                {
                    "protocol": args.protocol,
                    "n_sites": args.sites,
                    "solver": args.solver,
                    "solves": solves,
                    "seconds": seconds,
                    "grid": [
                        {"ratio": ratio, "availability": value}
                        for ratio, value in zip(ratios, values)
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(
        f"{args.protocol} n={args.sites} solver={args.solver} "
        f"({args.points} points in {seconds:.3f}s; solves: "
        f"{' '.join(f'{k}={v}' for k, v in sorted(solves.items())) or 'none'})"
    )
    print(f"{'mu/lambda':>10}  availability")
    for ratio, value in zip(ratios, values):
        print(f"{ratio:>10.3f}  {value:.9f}")
    return 0


def _bench_run(args: argparse.Namespace) -> int:
    """``repro bench run``: measure a suite, append history, regenerate."""
    records = _perf_suite_records(args.seed, args.quick)
    for record in records:
        timings = " ".join(
            f"{name}={value:.6g}"
            for name, value in sorted(record.timings.items())
            if not name.startswith("profile.")
        )
        print(f"{record.scenario}: {timings}")
    if args.record:
        path = write_run(args.record, records)
        print(f"wrote bench-run record {path}", file=sys.stderr)
    if args.history != "-":
        history_path = append_records(args.history, records)
        print(f"appended {len(records)} record(s) to {history_path}", file=sys.stderr)
        if args.trajectory != "-":
            trajectory = write_trajectory(
                args.trajectory, load_history(history_path), suite=args.suite
            )
            print(f"regenerated trajectory {trajectory}", file=sys.stderr)
    elif args.trajectory != "-":
        trajectory = write_trajectory(args.trajectory, records, suite=args.suite)
        print(f"regenerated trajectory {trajectory}", file=sys.stderr)
    return 0


def _bench_compare(args: argparse.Namespace) -> int:
    """``repro bench compare``: the regression gate's CLI face."""
    tolerance = Tolerance(relative=args.tolerance, floor_seconds=args.floor)
    comparison = compare_runs(
        load_records(args.baseline), load_records(args.current), tolerance
    )
    print(render_comparison(comparison, args.format))
    return comparison.exit_code


def _bench_report(args: argparse.Namespace) -> int:
    """``repro bench report``: render the history for humans."""
    records = load_history(args.history)
    if args.suite is not None:
        records = [r for r in records if r.suite == args.suite]
    if not records:
        print(f"no bench records in {args.history}", file=sys.stderr)
        return 1
    print(render_history(records, args.format))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "theorem3":
        rows = theorem3_table(range(args.n_min, args.n_max + 1))
        print(render_theorem3(rows))
        return 0 if all(r.matches for r in rows) else 1
    if args.command == "figure":
        series = (
            figure3_series(args.steps) if args.number == 3 else figure4_series(args.steps)
        )
        print(series.render())
        return 0
    if args.command == "fig1":
        scenario = figure1_scenario()
        for trace in scenario.replay_all(paper_protocols()).values():
            print(trace.format_table())
            print()
        return 0
    if args.command == "chain":
        chain = chain_for(args.protocol, args.sites)
        print(f"{chain.name}: {chain.size} states")
        for arc in chain.arcs():
            rate = []
            if arc.failures:
                rate.append(f"{arc.failures}*lambda")
            if arc.repairs:
                rate.append(f"{arc.repairs}*mu")
            source, target = arc.source, arc.target
            if args.protocol in ("hybrid", "modified-hybrid"):
                source = state_tuple(source, args.sites)
                target = state_tuple(target, args.sites)
            print(f"  {source} -> {target}  @ {' + '.join(rate)}")
        return 0
    if args.command == "grid":
        return _cmd_grid(args)
    if args.command == "compare":
        registry = MetricsRegistry() if args.manifest else None
        stopwatch = Stopwatch()
        with use(registry):
            matrix = {
                name: {
                    f"{ratio:g}": availability(name, args.sites, ratio)
                    for ratio in args.ratios
                }
                for name in _COMPARE_PROTOCOLS
            }
        if args.json:
            print(
                json.dumps(
                    {
                        "n_sites": args.sites,
                        "ratios": list(args.ratios),
                        "availability": matrix,
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            print(comparison_table(args.sites, args.ratios))
        if registry is not None:
            path = RunManifest.collect(
                "compare",
                seed=None,
                protocol={
                    "name": "comparison",
                    "protocols": list(_COMPARE_PROTOCOLS),
                    "n_sites": args.sites,
                },
                params={"ratios": list(args.ratios), "availability": matrix},
                registry=registry,
                wall_time_s=stopwatch.seconds,
            ).write(args.manifest)
            print(f"wrote manifest {path}", file=sys.stderr)
        return 0
    if args.command == "simulate":
        telemetry = args.metrics or args.manifest
        registry = MetricsRegistry() if telemetry else None
        stopwatch = Stopwatch()
        with use(registry):
            analytic = availability(args.protocol, args.sites, args.ratio)
            result = estimate_availability(
                args.protocol,
                args.sites,
                args.ratio,
                replicates=args.replicates,
                events=args.events,
                seed=args.seed,
                metrics=registry,
                workers=args.workers,
                backend=args.backend,
                batch_size=args.batch_size,
            )
        low, high = result.confidence_interval()
        print(
            f"{args.protocol} n={args.sites} ratio={args.ratio}:\n"
            f"  analytic    = {analytic:.6f}\n"
            f"  monte-carlo = {result.mean:.6f} +/- {result.stderr:.6f} "
            f"(95% CI [{low:.6f}, {high:.6f}])"
        )
        if args.metrics:
            assert registry is not None
            print()
            print(registry.render())
        if args.manifest:
            assert registry is not None
            path = RunManifest.collect(
                "simulate",
                seed=args.seed,
                protocol={"name": args.protocol, "n_sites": args.sites},
                params={
                    "ratio": args.ratio,
                    "events": args.events,
                    "replicates": args.replicates,
                    "workers": args.workers,
                    "backend": args.backend,
                    "analytic": analytic,
                    "mean": result.mean,
                    "stderr": result.stderr,
                },
                registry=registry,
                wall_time_s=stopwatch.seconds,
            ).write(args.manifest)
            print(f"wrote manifest {path}", file=sys.stderr)
        return 0 if result.agrees_with(analytic) else 1
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "validate-manifest":
        return obs_manifest.main(args.paths)
    if args.command == "crossover":
        result = certified_crossover(args.first, args.second, args.sites)
        print(
            f"{result.first} overtakes {result.second} at n={result.n_sites} "
            f"for mu/lambda >= {result.value:.3f} "
            f"(exact bracket [{float(result.low):.3f}, {float(result.high):.3f}])"
        )
        return 0
    if args.command == "proof":
        proof = theorem3_proof(args.sites)
        proof.verify()
        print(proof.transcript())
        return 0 if proof.unique else 1
    if args.command == "artifact":
        from .analysis import write_artifact

        results = write_artifact(
            args.output, n_values=tuple(range(3, args.n_max + 1))
        )
        print(
            f"wrote {args.output}: {len(results['theorem3'])} crossovers, "
            f"{len(results)} sections"
        )
        return 0
    if args.command == "lint":
        return lint_runner.run_from_args(args)
    if args.command == "check":
        return check_runner.run_from_args(args)
    if args.command == "transient":
        chain = chain_for(args.protocol, args.sites)
        values = transient_availability(chain, args.ratio, args.times)
        print(
            render_series(
                "t",
                args.times,
                {"availability": values},
                title=(
                    f"{args.protocol}, n={args.sites}, mu/lambda={args.ratio} "
                    "(from all-up at t=0)"
                ),
            )
        )
        mttb = mean_time_to_blocking(chain, args.ratio)
        print(f"mean time to first blocking: {mttb:.4f} (1/lambda units)")
        return 0
    if args.command == "profile":
        return _run_profile(args)
    if args.command == "bench":
        try:
            if args.bench_command == "run":
                return _bench_run(args)
            if args.bench_command == "compare":
                return _bench_compare(args)
            if args.bench_command == "report":
                return _bench_report(args)
        except (BenchError, OSError) as exc:
            print(f"repro bench: {exc}", file=sys.stderr)
            return 2
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
