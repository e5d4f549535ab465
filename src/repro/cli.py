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
    repro trace --protocol hybrid -n 3  # message-level protocol transcript
    repro trace -n 3 --jsonl            # causal-DAG export
    repro trace critical-path -n 3      # per-phase commit latency
    repro trace assert --input ce.jsonl # happens-before assertion catalog
    repro validate-manifest out.json    # check a run manifest's schema

Observability: ``simulate`` and ``compare`` accept ``--metrics`` (print
the metric registry) and ``--manifest PATH`` (write a machine-readable
run manifest, docs/OBSERVABILITY.md); ``trace --jsonl`` emits the
causal event log one JSON object per line, and the transcript and the
``trace`` causal modes reconstruct what they show from those events alone
(docs/OBSERVABILITY.md, "Causal tracing & SLOs").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from importlib.metadata import PackageNotFoundError
from importlib.metadata import version as _pkg_version
from pathlib import Path
from typing import TYPE_CHECKING

from .check import runner as check_runner
from .errors import ObservabilityError, ReproError
from .lint import runner as lint_runner
from .obs.query import TRANSCRIPT_CATEGORIES

if TYPE_CHECKING:
    from .netsim import ReplicaCluster

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
            "prints its transcript, derived from the run's causal events.  "
            "With --jsonl those events are printed instead, one JSON object "
            "per line.  The optional mode switches to the causal-trace "
            "toolchain "
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
                   help="emit the causal events as JSON lines instead of "
                        "the transcript")
    p.add_argument(
        "--categories", nargs="+", default=None,
        choices=TRANSCRIPT_CATEGORIES,
        metavar="CAT",
        help="restrict the transcript to these record categories "
             f"({', '.join(TRANSCRIPT_CATEGORIES)})",
    )
    p.add_argument(
        "--input", default=None, metavar="FILE",
        help="read a causal JSONL export instead of running the scripted "
             "workload",
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
        help="run a trace invocation under the profiler",
        description=(
            "Re-enters the CLI with the given `repro trace` invocation "
            "while a SpanProfiler is installed: the sim-time spans of the "
            "traced run fold into deterministic inclusive/exclusive tables "
            "and a collapsed-stack export (flamegraph-ready).  See "
            "docs/BENCHMARKING.md."
        ),
    )
    p.add_argument(
        "--output", metavar="PATH",
        help="write the collapsed-stack profile to PATH instead of stdout",
    )
    p.add_argument(
        "profiled", nargs=argparse.REMAINDER, metavar="COMMAND ...",
        help="the repro trace invocation to profile",
    )

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


def _forget_chains() -> None:
    """Drop the process's cached chains and symbolic solves.

    Called before a command records telemetry, so its ``markov.build.*``
    counters count the derivations that command makes and a manifest
    depends only on the command and its seed, not on what ran before it
    in the same process.
    """
    from .markov import clear_symbolic_cache
    from .markov.availability import _chain

    _chain.cache_clear()
    clear_symbolic_cache()


@contextmanager
def _file_errors(action: str, path: str) -> Iterator[None]:
    """Report ``path`` as a usage error when it cannot be opened or decoded.

    Wrap no ``print``: a closed stdout's ``BrokenPipeError`` is an
    ``OSError`` too, and keeps its exit 1.
    """
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise ReproError(f"cannot {action} {path}: {exc}") from exc


#: Protocol columns of ``repro compare`` (mirrors ``comparison_table``).
_COMPARE_PROTOCOLS = ("voting", "dynamic", "dynamic-linear", "hybrid")


def _scripted_workload(
    protocol: str, n_sites: int, *, trace: bool = False, seed: int = 0
) -> ReplicaCluster:
    """Run the fixed ``repro trace`` workload; returns the settled cluster.

    Deterministic by construction (the message network is driven by
    simulated time only): update; fail the highest-named site; update
    under failure; repair and restart; read.  ``trace`` records the
    causal events the rendered trace and the causal-trace modes read.
    """
    from .core import make_protocol
    from .netsim import ReplicaCluster
    from .types import site_names

    sites = site_names(n_sites)
    cluster = ReplicaCluster(
        make_protocol(protocol, sites),
        initial_value="v0",
        trace=trace,
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


def _run_trace(args: argparse.Namespace) -> int:
    """``repro trace``: the transcript, the export and the causal modes.

    ``--input`` reads an existing export (netsim telemetry or a
    ``repro check`` counterexample -- one shared format); otherwise the
    scripted workload runs traced.  Either way every output is computed
    from the causal events alone.
    """
    from .netsim import reset_run_ids
    from .obs import (
        CausalDag,
        active_profiler,
        assertion_names,
        check_assertions,
        operation_stats,
        spans,
        transcript,
    )

    if args.categories and (args.jsonl or args.mode is not None):
        print(
            "repro trace: --categories filters the transcript; it cannot be "
            "combined with --jsonl or a causal mode",
            file=sys.stderr,
        )
        return 2
    drop_notice = None  # a full log still ends its transcript with its drops
    if args.input is not None:
        with _file_errors("read", args.input):
            text = Path(args.input).read_text(encoding="utf-8")
        dag = CausalDag.from_jsonl(text)
        if not len(dag):
            raise ObservabilityError(f"{args.input} holds no causal event")
    else:
        # Rewind the process-wide run-id counter so same-seed traces are
        # byte-identical however many traces ran before in this process.
        reset_run_ids()
        log = _scripted_workload(
            args.protocol, args.sites, trace=True, seed=args.seed
        ).trace_log
        assert log is not None  # trace=True above
        text = log.to_jsonl()
        dag = CausalDag.from_events(log.events)
        drop_notice = log.drop_notice() if log.dropped else None
    profiler = active_profiler()
    if profiler is not None:
        profiler.fold(spans(dag))
    if args.mode is None and not args.jsonl:
        for record in transcript(dag):
            if not args.categories or record.category in args.categories:
                print(record.render())
        if drop_notice is not None:
            print(drop_notice)
        return 0
    if args.mode in (None, "causal"):
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


#: Subcommands `repro profile` may wrap: those whose runs close sim-time spans.
_PROFILEABLE = ("trace",)


def _run_profile(args: argparse.Namespace) -> int:
    """``repro profile``: re-enter the CLI under an installed profiler."""
    target = list(args.profiled)
    if target and target[0] == "--":  # argparse REMAINDER separator
        target = target[1:]
    if not target or target[0] not in _PROFILEABLE:
        choices = ", ".join(_PROFILEABLE)
        print(
            f"repro profile: give an invocation to profile ({choices}), "
            f"e.g. `repro profile trace --protocol hybrid -n 3`",
            file=sys.stderr,
        )
        return 2
    from .obs import SpanProfiler, profiling

    profiler = SpanProfiler()
    with profiling(profiler):
        code = main(target)
    if code == 2:  # a usage error: the invocation ran nothing to profile
        return code
    collapsed = profiler.collapsed_stack()
    print()
    print(profiler.render())
    if args.output:
        with _file_errors("write", args.output):
            Path(args.output).write_text(
                collapsed + "\n" if collapsed else "", encoding="utf-8"
            )
        print(f"wrote collapsed-stack profile {args.output}", file=sys.stderr)
    elif collapsed:
        print()
        print("collapsed stacks (exclusive sim-time, flamegraph-ready):")
        print(collapsed)
    return code


def _cmd_theorem3(args: argparse.Namespace) -> int:
    """``repro theorem3``: the Theorem 3 crossover table."""
    from .analysis import render_theorem3, theorem3_table

    rows = theorem3_table(range(args.n_min, args.n_max + 1))
    print(render_theorem3(rows))
    return 0 if all(r.matches for r in rows) else 1


def _cmd_figure(args: argparse.Namespace) -> int:
    """``repro figure``: the Fig. 3 or Fig. 4 series."""
    from .analysis import figure3_series, figure4_series

    series = (
        figure3_series(args.steps) if args.number == 3 else figure4_series(args.steps)
    )
    print(series.render())
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    """``repro fig1``: the Fig. 1 partition graph, replayed per protocol."""
    from .sim import figure1_scenario, paper_protocols

    scenario = figure1_scenario()
    for trace in scenario.replay_all(paper_protocols()).values():
        print(trace.format_table())
        print()
    return 0


def _cmd_chain(args: argparse.Namespace) -> int:
    """``repro chain``: every arc of a protocol's chain (Fig. 2 for hybrid)."""
    from .markov import chain_for, state_tuple

    chain = chain_for(args.protocol, args.sites)
    print(f"{chain.name}: {chain.size} states")
    for arc in chain.arcs():
        rate = []
        if arc.failures:
            rate.append(f"{arc.failures}*lambda")
        if arc.repairs:
            rate.append(f"{arc.repairs}*mu")
        source, target = arc.source, arc.target
        if args.protocol == "hybrid":
            source = state_tuple(source, args.sites)
            target = state_tuple(target, args.sites)
        print(f"  {source} -> {target}  @ {' + '.join(rate)}")
    return 0


def _cmd_transient(args: argparse.Namespace) -> int:
    """``repro transient``: availability over time and time to blocking."""
    from .analysis import render_series
    from .markov import chain_for, mean_time_to_blocking, transient_availability

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


def _cmd_grid(args: argparse.Namespace) -> int:
    """``repro grid``: one protocol's availability curve, any solver.

    Runs under a private metrics registry and prints which solve paths
    actually fired, so forcing ``--solver sparse`` is verifiable from
    the output alone.
    """
    from .markov import availability_grid
    from .obs import MetricsRegistry, Stopwatch, use

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
    with use(registry):
        values = availability_grid(
            args.protocol,
            args.sites,
            ratios,
            prefer_symbolic=False,
            solver=args.solver,
        )
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


def _cmd_compare(args: argparse.Namespace) -> int:
    """``repro compare``: the availability matrix at fixed n."""
    from .analysis import comparison_table
    from .markov import availability
    from .obs import MetricsRegistry, RunManifest, Stopwatch, use

    registry = MetricsRegistry() if args.manifest else None
    if registry is not None:
        _forget_chains()
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
        manifest = RunManifest.collect(
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
        )
        with _file_errors("write", args.manifest):
            path = manifest.write(args.manifest)
        print(f"wrote manifest {path}", file=sys.stderr)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    """``repro simulate``: Monte-Carlo against analytic availability."""
    from .markov import availability
    from .obs import MetricsRegistry, RunManifest, Stopwatch, use
    from .sim import estimate_availability

    telemetry = args.metrics or args.manifest
    registry = MetricsRegistry() if telemetry else None
    if registry is not None:
        _forget_chains()
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
        manifest = RunManifest.collect(
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
        )
        with _file_errors("write", args.manifest):
            path = manifest.write(args.manifest)
        print(f"wrote manifest {path}", file=sys.stderr)
    return 0 if result.agrees_with(analytic) else 1


def _cmd_validate_manifest(args: argparse.Namespace) -> int:
    """``repro validate-manifest``: check run manifests against the schema."""
    from .obs import manifest

    return manifest.main(args.paths)


def _cmd_crossover(args: argparse.Namespace) -> int:
    """``repro crossover``: the certified crossover of two protocols."""
    from .analysis import certified_crossover

    result = certified_crossover(args.first, args.second, args.sites)
    print(
        f"{result.first} overtakes {result.second} at n={result.n_sites} "
        f"for mu/lambda >= {result.value:.3f} "
        f"(exact bracket [{float(result.low):.3f}, {float(result.high):.3f}])"
    )
    return 0


def _cmd_proof(args: argparse.Namespace) -> int:
    """``repro proof``: the symbolic Theorem 3 proof for one n."""
    from .analysis import theorem3_proof

    proof = theorem3_proof(args.sites)
    proof.verify()
    print(proof.transcript())
    return 0 if proof.unique else 1


def _cmd_artifact(args: argparse.Namespace) -> int:
    """``repro artifact``: write the machine-readable results artifact."""
    from .analysis import write_artifact

    with _file_errors("write", args.output):
        results = write_artifact(args.output, n_values=tuple(range(3, args.n_max + 1)))
    print(
        f"wrote {args.output}: {len(results['theorem3'])} crossovers, "
        f"{len(results)} sections"
    )
    return 0


#: Each verb's handler.  A handler imports the modules its work calls, so a
#: verb loads numpy or scipy only if it solves or samples with them.
_VERBS: dict[str, Callable[[argparse.Namespace], int]] = {
    "theorem3": _cmd_theorem3,
    "figure": _cmd_figure,
    "fig1": _cmd_fig1,
    "chain": _cmd_chain,
    "grid": _cmd_grid,
    "compare": _cmd_compare,
    "simulate": _cmd_simulate,
    "crossover": _cmd_crossover,
    "proof": _cmd_proof,
    "artifact": _cmd_artifact,
    "lint": lint_runner.run_from_args,
    "check": check_runner.run_from_args,
    "trace": _run_trace,
    "validate-manifest": _cmd_validate_manifest,
    "profile": _run_profile,
    "transient": _cmd_transient,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    A library error (:class:`~repro.errors.ReproError`: a protocol without
    a chain, too few sites, a malformed trace, a backend limit) or a file
    argument that cannot be read or written is a usage error:
    ``error: ...`` on stderr and exit 2.  A reader that closes
    stdout early (``repro chain ... | head``) ends the command quietly
    with exit code 1, the recipe of Python's ``signal`` documentation for
    SIGPIPE.
    """
    args = build_parser().parse_args(argv)
    try:
        code = _VERBS[args.command](args)
        sys.stdout.flush()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; point it at
        # devnull so that flush cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
