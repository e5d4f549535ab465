"""The trace queries and the happens-before catalog as plain scans.

Validation-lattice oracle for :class:`repro.obs.query.CausalDag`: every
function here reads only ``dag.events`` and rescans it on each call, as
the query engine did before it indexed events by kind, trace and run.
``tests/obs/test_query_reference.py`` checks that the indexed queries
return exactly what these scans return.
"""

from __future__ import annotations

from repro.obs.query import (
    AssertionFailure,
    CausalDag,
    CausalEvent,
    OperationStats,
    assertion_names,
)

__all__ = [
    "check_assertions",
    "find",
    "operation_stats",
    "roots",
    "trace_events",
    "traces",
]


def find(
    dag: CausalDag,
    kind: str | None = None,
    *,
    trace_id: str | None = None,
    run_id: int | None = None,
) -> tuple[CausalEvent, ...]:
    return tuple(
        e
        for e in dag.events
        if (kind is None or e.kind == kind)
        and (trace_id is None or e.trace_id == trace_id)
        and (run_id is None or e.run_id == run_id)
    )


def traces(dag: CausalDag) -> tuple[str, ...]:
    seen: dict[str, None] = {}
    for event in dag.events:
        seen.setdefault(event.trace_id, None)
    return tuple(seen)


def trace_events(dag: CausalDag, trace_id: str) -> tuple[CausalEvent, ...]:
    return tuple(e for e in dag.events if e.trace_id == trace_id)


def roots(dag: CausalDag) -> tuple[CausalEvent, ...]:
    return tuple(e for e in dag.events if not e.parents)


def operation_stats(dag: CausalDag) -> tuple[OperationStats, ...]:
    rows = []
    for trace_id in traces(dag):
        events = trace_events(dag, trace_id)
        root = next((e for e in events if not e.parents), None)
        finish = next((e for e in events if e.kind == "finish"), None)
        if root is None or root.kind != "submit":
            continue
        status = finish.field("status") if finish is not None else None
        rows.append(
            OperationStats(
                trace_id=trace_id,
                run_id=root.run_id,
                kind=str(root.field("op")) if root.field("op") is not None else None,
                status=None if status is None else str(status),
                latency=finish.time - root.time if finish is not None else None,
            )
        )
    return tuple(rows)


# ---------------------------------------------------------------------- #
# The catalog, one function per assertion, over a by-id map of the events
# ---------------------------------------------------------------------- #


def _by_id(dag: CausalDag) -> dict[str, CausalEvent]:
    return {e.event_id: e for e in dag.events}


def _ancestors(by_id: dict[str, CausalEvent], event_id: str) -> set[str]:
    seen: set[str] = set()
    stack = [p for p in by_id[event_id].parents if p in by_id]
    while stack:
        current = stack.pop()
        if current not in seen:
            seen.add(current)
            stack.extend(p for p in by_id[current].parents if p in by_id)
    return seen


def _parents_resolve(dag: CausalDag) -> list[AssertionFailure]:
    by_id = _by_id(dag)
    return [
        AssertionFailure(
            "parents-resolve",
            f"event {e.event_id} names unknown parent {p}",
            (p, e.event_id),
        )
        for e in dag.events
        for p in e.parents
        if p not in by_id
    ]


def _acyclic(dag: CausalDag) -> list[AssertionFailure]:
    by_id = _by_id(dag)
    failures = []
    state: dict[str, int] = {}  # 1 = on stack, 2 = done
    for start in dag.events:
        if state.get(start.event_id):
            continue
        stack = [(start.event_id, 0)]
        state[start.event_id] = 1
        while stack:
            node, index = stack[-1]
            parents = [p for p in by_id[node].parents if p in by_id]
            if index == len(parents):
                state[node] = 2
                stack.pop()
                continue
            stack[-1] = (node, index + 1)
            parent = parents[index]
            if state.get(parent) == 1:
                failures.append(
                    AssertionFailure(
                        "acyclic", "causal cycle through parent edge", (parent, node)
                    )
                )
            elif parent not in state:
                state[parent] = 1
                stack.append((parent, 0))
    return failures


def _edges(dag: CausalDag):
    """(parent, child) for every parent edge that resolves."""
    by_id = _by_id(dag)
    for event in dag.events:
        for parent_id in event.parents:
            if parent_id in by_id:
                yield by_id[parent_id], event


def _lamport_monotone(dag: CausalDag) -> list[AssertionFailure]:
    return [
        AssertionFailure(
            "lamport-monotone",
            f"lamport {parent.lamport} -> {event.lamport} does not increase",
            (parent.event_id, event.event_id),
        )
        for parent, event in _edges(dag)
        if parent.lamport >= event.lamport
    ]


def _time_monotone(dag: CausalDag) -> list[AssertionFailure]:
    return [
        AssertionFailure(
            "time-monotone",
            f"sim time runs backwards ({parent.time:g} -> {event.time:g})",
            (parent.event_id, event.event_id),
        )
        for parent, event in _edges(dag)
        if parent.time > event.time
    ]


def _single_root(dag: CausalDag) -> list[AssertionFailure]:
    by_trace: dict[str, list[str]] = {}
    for event in roots(dag):
        by_trace.setdefault(event.trace_id, []).append(event.event_id)
    return [
        AssertionFailure(
            "single-root", f"trace {trace_id} has {len(ids)} root events", tuple(ids)
        )
        for trace_id, ids in by_trace.items()
        if len(ids) > 1
    ]


def _participants(event: CausalEvent) -> tuple[str, ...]:
    raw = event.field("participants")
    return tuple(str(m) for m in raw) if isinstance(raw, (list, tuple)) else ()


def _commit_after_votes(dag: CausalDag) -> list[AssertionFailure]:
    by_id = _by_id(dag)
    failures = []
    for commit in find(dag, "commit"):
        ancestors = _ancestors(by_id, commit.event_id)
        voters = {
            str(vote.field("voter"))
            for vote in find(dag, "vote", run_id=commit.run_id)
            if vote.event_id in ancestors
        }
        failures.extend(
            AssertionFailure(
                "commit-after-votes",
                f"commit of run {commit.run_id} does not causally "
                f"follow a vote from participant {member}",
                (commit.event_id,),
            )
            for member in _participants(commit)
            if member != commit.site and member not in voters
        )
    return failures


def _install_within_participants(dag: CausalDag) -> list[AssertionFailure]:
    failures = []
    for install in find(dag, "install"):
        participants = set(_participants(install))
        if install.site is not None and install.site not in participants:
            failures.append(
                AssertionFailure(
                    "install-within-participants",
                    f"site {install.site} installed version "
                    f"{install.field('version')} of run {install.run_id} but "
                    f"is outside participants {sorted(participants)}",
                    (install.event_id,),
                )
            )
    return failures


def _one_run_per_version(dag: CausalDag) -> list[AssertionFailure]:
    failures = []
    installs = find(dag, "install")
    for index, install in enumerate(installs):
        version = install.field("version")
        first = next(e for e in installs[: index + 1] if e.field("version") == version)
        if first.run_id != install.run_id:
            failures.append(
                AssertionFailure(
                    "one-run-per-version",
                    f"version {version} installed by run {first.run_id} at "
                    f"{first.site} and by run {install.run_id} at {install.site}",
                    (first.event_id, install.event_id),
                )
            )
    return failures


_CATALOG = {
    "parents-resolve": _parents_resolve,
    "acyclic": _acyclic,
    "lamport-monotone": _lamport_monotone,
    "time-monotone": _time_monotone,
    "single-root": _single_root,
    "commit-after-votes": _commit_after_votes,
    "install-within-participants": _install_within_participants,
    "one-run-per-version": _one_run_per_version,
}
assert tuple(_CATALOG) == assertion_names()


def check_assertions(dag: CausalDag) -> list[AssertionFailure]:
    """The whole catalog, in the production evaluation order."""
    return [failure for check in _CATALOG.values() for failure in check(dag)]
