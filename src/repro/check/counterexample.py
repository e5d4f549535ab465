"""Counterexample minimization and replayable JSONL schedules.

A violating schedule found by the explorer is first *minimized* -- a
greedy one-delta pass repeated to fixpoint: drop any single action whose
removal still (a) yields an applicable schedule and (b) reproduces an
oracle violation.  For the depths the checker runs at this converges in a
handful of replay rounds and typically strips timer noise and unrelated
deliveries down to the essential interleaving.

The minimized schedule is then serialized through the shared
:mod:`repro.obs.trace` machinery (category ``check``), so counterexample
files and stochastic-run traces have one JSONL schema: each line is a
:class:`~repro.obs.trace.TraceEvent` whose typed fields carry the action
encoding from :func:`~repro.check.actions.action_to_json`, followed by a
final ``violation`` event naming the failed oracle.  :func:`load_schedule`
reads such a file back and :func:`replay_schedule` re-executes it on a
fresh harness, returning the reproduced violation -- the round trip tests
and ``repro check --replay`` rely on.
"""

from __future__ import annotations

import json
from collections.abc import Iterable

from ..errors import CheckError
from ..obs.trace import TraceLog
from .actions import Action, action_from_json, action_to_json
from .harness import CheckConfig, CheckHarness
from .oracles import Violation, check_oracles, default_oracle_names

__all__ = [
    "run_schedule",
    "minimize",
    "schedule_to_jsonl",
    "load_schedule",
    "replay_schedule",
]


def run_schedule(
    harness: CheckHarness,
    schedule: Iterable[Action],
    oracles: tuple[str, ...],
) -> Violation | None:
    """Reset, apply a schedule, and oracle-check after every step.

    Returns the first violation reproduced, or ``None`` -- also when some
    action is not applicable (an over-pruned candidate during
    minimization simply does not count as a reproduction).
    """
    harness.reset()
    previous = None
    snapshot = harness.snapshot()
    violation = check_oracles(oracles, harness, snapshot, previous)
    if violation is not None:
        return violation
    for action in schedule:
        if not harness.apply(action):
            return None
        previous, snapshot = snapshot, harness.snapshot()
        violation = check_oracles(oracles, harness, snapshot, previous)
        if violation is not None:
            return violation
    return None


def minimize(
    config: CheckConfig,
    schedule: tuple[Action, ...],
    oracles: tuple[str, ...],
) -> tuple[tuple[Action, ...], Violation]:
    """Shrink a violating schedule to a locally minimal one.

    Repeatedly drops single actions while a violation still reproduces;
    the result is 1-minimal (no single action can be removed).  Raises
    :class:`~repro.errors.CheckError` if the input schedule does not
    reproduce at all (a determinism bug worth failing loudly on).
    """
    harness = CheckHarness(config)
    violation = run_schedule(harness, schedule, oracles)
    if violation is None:
        raise CheckError(
            "counterexample schedule does not reproduce any violation "
            f"({len(schedule)} actions)"
        )
    current = list(schedule)
    shrunk = True
    while shrunk:
        shrunk = False
        index = 0
        while index < len(current):
            candidate = current[:index] + current[index + 1 :]
            reproduced = run_schedule(harness, candidate, oracles)
            if reproduced is not None:
                current = candidate
                violation = reproduced
                shrunk = True
            else:
                index += 1
    return tuple(current), violation


def schedule_to_jsonl(
    schedule: tuple[Action, ...],
    violation: Violation,
    config: CheckConfig,
) -> str:
    """Serialize a counterexample as JSONL trace events (category check).

    The file carries two layers in one document: the replayable
    ``check``-category schedule (config, one event per action, the
    violation), plus the full ``causal``-category DAG obtained by
    replaying the schedule on a causal-enabled harness.  The same
    :mod:`repro.obs.query` tooling (``repro trace assert``,
    ``repro trace critical-path``) therefore works on counterexamples
    and on stochastic-run telemetry alike; :func:`load_schedule` simply
    skips the causal lines.
    """
    log = TraceLog()
    log.record(
        0.0,
        "check",
        f"counterexample: {config.protocol} n={config.n_sites}",
        record="config",
        protocol=config.protocol,
        sites=config.n_sites,
        updates=config.updates,
        crashes=config.crashes,
        recoveries=config.recoveries,
        link_cuts=config.link_cuts,
        link_heals=config.link_heals,
        disable_participants_guard=config.disable_participants_guard,
    )
    for step, action in enumerate(schedule, start=1):
        log.record(
            float(step), "check", action.describe(), **action_to_json(action)
        )
    log.record(
        float(len(schedule) + 1),
        "check",
        f"violation: {violation.describe()}",
        record="violation",
        oracle=violation.oracle,
        detail=violation.detail,
    )
    replay = CheckHarness(config, causal=True)
    replay.replay(list(schedule))
    assert replay.cluster.trace_log is not None  # a causal harness traces
    for event in replay.cluster.trace_log.events:
        log.append(event)
    return log.to_jsonl() + "\n"


def load_schedule(
    text: str,
) -> tuple[CheckConfig, tuple[Action, ...], Violation | None]:
    """Parse a counterexample JSONL document back into a schedule."""
    config: CheckConfig | None = None
    actions: list[Action] = []
    violation: Violation | None = None
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CheckError(f"line {line_number} is not JSON: {exc}") from exc
        fields = event.get("fields", {})
        if event.get("category") != "check":
            continue
        if fields.get("record") == "config":
            config = CheckConfig(
                protocol=fields["protocol"],
                n_sites=int(fields["sites"]),
                updates=int(fields["updates"]),
                crashes=int(fields["crashes"]),
                recoveries=int(fields["recoveries"]),
                link_cuts=int(fields["link_cuts"]),
                link_heals=int(fields["link_heals"]),
                disable_participants_guard=bool(
                    fields["disable_participants_guard"]
                ),
            )
        elif fields.get("record") == "violation":
            violation = Violation(fields["oracle"], fields["detail"])
        elif "action" in fields:
            actions.append(action_from_json(fields))
    if config is None:
        raise CheckError("counterexample file has no config record")
    return config, tuple(actions), violation


def replay_schedule(text: str) -> tuple[Violation | None, CheckConfig]:
    """Re-execute a serialized counterexample; return what it reproduces."""
    config, actions, _expected = load_schedule(text)
    harness = CheckHarness(config)
    return run_schedule(harness, actions, default_oracle_names()), config
