"""CLI entry point for ``repro check`` (explicit-state model checking).

Follows the same integration pattern as :mod:`repro.lint.runner`:
:func:`configure_parser` attaches the subcommand's options and
:func:`run_from_args` executes a parsed invocation, returning the process
exit code (0 = all protocols clean, 1 = a violation was found, 2 = usage
error, including a counterexample path that cannot be written).  The
``--quick`` preset is the CI configuration: the depth bound and workload
under which the n=3 state space is exhausted for every registered
protocol in seconds, and under which the seeded fork bug
(``--inject-fork-bug``) is rediscovered with a minimized counterexample.
The preset fixes the sites, the workload and the fault budgets, so
``--quick`` next to any of their options is a usage error.
"""

from __future__ import annotations

import json
import sys

from ..core.registry import protocol_names
from ..errors import ReproError
from .counterexample import minimize, replay_schedule, schedule_to_jsonl
from .explorer import CheckResult, Explorer
from .harness import CheckConfig
from .oracles import default_oracle_names

__all__ = ["configure_parser", "run_from_args", "quick_config"]

#: The --quick preset: calibrated so every registered protocol at n=3
#: exhausts deterministically in CI time (~7 s per protocol) with enough
#: depth to reach the seeded fork bug (``--inject-fork-bug``).  Its
#: counterexample minimizes to 9 steps under the preset's two updates; the
#: same search with one update (``--protocol dynamic --inject-fork-bug
#: --updates 1``, without ``--quick``) minimizes to 7.
QUICK_DEPTH = 10
QUICK_UPDATES = 2

#: The options the preset fixes, by :class:`CheckConfig` field.  Their
#: argparse default is None: one given next to ``--quick`` is rejected
#: instead of silently ignored, and one left out takes the field's default.
_PRESET_OPTIONS = {
    "n_sites": "-n/--sites",
    "updates": "--updates",
    "crashes": "--crashes",
    "recoveries": "--recoveries",
    "link_cuts": "--link-cuts",
    "link_heals": "--link-heals",
}


def quick_config(protocol: str, *, inject_fork_bug: bool = False) -> CheckConfig:
    """The quick-preset configuration for one protocol."""
    return CheckConfig(
        protocol=protocol,
        n_sites=3,
        updates=QUICK_UPDATES,
        disable_participants_guard=inject_fork_bug,
    )


def configure_parser(parser) -> None:
    """Attach ``repro check`` options to an argparse parser."""
    parser.add_argument(
        "--protocol",
        default="all",
        help=(
            "protocol to check, or 'all' for every registered protocol "
            f"(default: all; known: {', '.join(protocol_names())})"
        ),
    )
    parser.add_argument(
        "-n",
        "--sites",
        dest="n_sites",
        metavar="SITES",
        type=int,
        default=None,
        help=(
            f"number of replica sites (default: {CheckConfig.n_sites}; "
            "supported: 2-5)"
        ),
    )
    parser.add_argument(
        "--depth",
        type=int,
        default=QUICK_DEPTH,
        help=f"schedule depth bound (default: {QUICK_DEPTH})",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=(
            "CI preset: n=3, two updates, no faults, default depth "
            "(cannot be combined with -n, --updates or a fault budget)"
        ),
    )
    parser.add_argument(
        "--updates",
        type=int,
        default=None,
        help=f"concurrent workload updates (default: {CheckConfig.updates})",
    )
    parser.add_argument(
        "--crashes",
        type=int,
        default=None,
        help=f"site crash budget (default: {CheckConfig.crashes})",
    )
    parser.add_argument(
        "--recoveries",
        type=int,
        default=None,
        help=f"site recovery budget (default: {CheckConfig.recoveries})",
    )
    parser.add_argument(
        "--link-cuts",
        type=int,
        default=None,
        help=f"link failure budget (default: {CheckConfig.link_cuts})",
    )
    parser.add_argument(
        "--link-heals",
        type=int,
        default=None,
        help=f"link repair budget (default: {CheckConfig.link_heals})",
    )
    parser.add_argument(
        "--oracle",
        action="append",
        default=None,
        metavar="NAME",
        help=(
            "oracle to check (repeatable; default: all of "
            f"{', '.join(default_oracle_names())})"
        ),
    )
    parser.add_argument(
        "--max-states",
        type=int,
        default=None,
        help="abort after visiting this many states (safety valve)",
    )
    parser.add_argument(
        "--inject-fork-bug",
        action="store_true",
        help=(
            "test switch: disable the participants guard on "
            "CommitMessage/DecisionReply installs (re-opens the PR-1 fork "
            "bug; the checker must find it)"
        ),
    )
    parser.add_argument(
        "--counterexample",
        metavar="PATH",
        default=None,
        help="write a minimized, replayable counterexample JSONL here",
    )
    parser.add_argument(
        "--replay",
        metavar="PATH",
        default=None,
        help="replay a counterexample JSONL file instead of exploring",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON report"
    )


def _report_lines(result: CheckResult) -> list[str]:
    lines = [
        f"protocol {result.config.protocol} (n={result.config.n_sites}, "
        f"depth {result.depth}): {result.states} states, "
        f"{result.transitions} transitions "
        f"(cache pruned {result.cache_pruned}, sleep pruned "
        f"{result.sleep_pruned}, frontier cutoffs {result.frontier_cutoffs})"
    ]
    if result.truncated:
        lines.append("  TRUNCATED: max-states budget exhausted")
    if result.violation is not None:
        lines.append(
            f"  VIOLATION after {len(result.schedule)} steps -- "
            f"{result.violation.describe()}"
        )
    else:
        lines.append("  no invariant violations")
    return lines


def _run_replay(path: str, as_json: bool) -> int:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"repro check: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    violation, config = replay_schedule(text)
    if as_json:
        print(
            json.dumps(
                {
                    "protocol": config.protocol,
                    "sites": config.n_sites,
                    "reproduced": violation is not None,
                    "violation": (
                        None
                        if violation is None
                        else {
                            "oracle": violation.oracle,
                            "detail": violation.detail,
                        }
                    ),
                },
                sort_keys=True,
            )
        )
    elif violation is None:
        print(f"replay of {path}: no violation reproduced")
    else:
        print(f"replay of {path}: reproduced {violation.describe()}")
    return 0 if violation is not None else 1


def run_from_args(args) -> int:
    """Execute a parsed ``repro check`` invocation."""
    if args.replay is not None:
        return _run_replay(args.replay, args.json)
    if args.protocol == "all":
        protocols = protocol_names()
    elif args.protocol in protocol_names():
        protocols = (args.protocol,)
    else:
        known = ", ".join(protocol_names())
        print(
            f"repro check: unknown protocol {args.protocol!r}; known: {known}",
            file=sys.stderr,
        )
        return 2
    oracles = tuple(args.oracle) if args.oracle else default_oracle_names()
    unknown = set(oracles) - set(default_oracle_names())
    if unknown:
        print(
            f"repro check: unknown oracle(s): {', '.join(sorted(unknown))}",
            file=sys.stderr,
        )
        return 2
    given = {
        name: value
        for name in _PRESET_OPTIONS
        if (value := getattr(args, name)) is not None
    }
    if args.quick and given:
        flags = ", ".join(_PRESET_OPTIONS[name] for name in given)
        print(
            "repro check: --quick fixes n=3, two updates and no faults; "
            f"it cannot be combined with {flags}",
            file=sys.stderr,
        )
        return 2
    sites = given.get("n_sites", CheckConfig.n_sites)
    if not 2 <= sites <= 5:
        print(
            f"repro check: sites must be in 2..5, got {sites}",
            file=sys.stderr,
        )
        return 2
    reports = []
    exit_code = 0
    unwritable = None
    for protocol in protocols:
        config = CheckConfig(
            protocol=protocol,
            disable_participants_guard=args.inject_fork_bug,
            **given,
        )
        try:
            result = Explorer(
                config=config,
                depth=args.depth,
                oracles=oracles,
                max_states=args.max_states,
            ).run()
        except ReproError as exc:
            print(f"repro check: {exc}", file=sys.stderr)
            return 2
        report = result.to_dict()
        if result.violation is not None:
            exit_code = 1
            schedule, violation = minimize(config, result.schedule, oracles)
            report["minimized_schedule_length"] = len(schedule)
            report["violation"] = {
                "oracle": violation.oracle,
                "detail": violation.detail,
            }
            document = schedule_to_jsonl(schedule, violation, config)
            if args.counterexample:
                try:
                    with open(args.counterexample, "w", encoding="utf-8") as out:
                        out.write(document)
                except OSError as exc:
                    unwritable = f"cannot write {args.counterexample}: {exc}"
                else:
                    report["counterexample"] = args.counterexample
            if not args.json:
                for line in _report_lines(result):
                    print(line)
                print(
                    f"  minimized to {len(schedule)} steps"
                    + (
                        f"; wrote {args.counterexample}"
                        if "counterexample" in report
                        else ""
                    )
                )
                for step, action in enumerate(schedule, start=1):
                    print(f"    {step:2d}. {action.describe()}")
        elif not args.json:
            for line in _report_lines(result):
                print(line)
        if result.truncated:
            exit_code = max(exit_code, 1)
        reports.append(report)
        if unwritable is not None:
            break
    if args.json:
        print(json.dumps({"results": reports}, sort_keys=True, indent=2))
    if unwritable is not None:
        print(f"repro check: {unwritable}", file=sys.stderr)
        return 2
    return exit_code
