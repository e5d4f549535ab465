"""Trace-query engine over exported causal DAGs.

Everything here works purely on the JSONL export (or the in-memory
``TraceEvent`` list) of category ``causal`` events produced by
:class:`~repro.obs.causal.CausalTracer` -- no live cluster is needed, so
the same queries run on stochastic netsim traces and on model-checker
counterexample files.

Four query families:

* **happens-before** -- :meth:`CausalDag.happens_before` is ancestor
  reachability over the parent edges; :func:`check_assertions` runs the
  happens-before catalog (commit never precedes its quorum of votes, no
  install outside the deciding partition *P*, one run per installed
  version, clock/time monotonicity, acyclicity) and returns the
  offending edges.
* **critical path** -- :meth:`CausalDag.critical_path` walks back from an
  event always taking the latest-finishing parent; consecutive path
  events bound per-phase sim-time segments that sum *exactly* to the
  end-to-end latency (the segments telescope).
* **per-operation stats** -- :func:`operation_stats` folds each
  operation's submit and finish events into latency / outcome rows, the
  data behind the ``op.commit.latency`` / ``op.abort.rate`` SLO metrics.
* **views** -- :func:`spans` derives the sim-time spans (run, vote,
  catch-up, in-doubt) and :func:`transcript` the flat ``repro trace``
  records, each from the events that open and close them; netsim emits
  nothing else.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

from ..errors import ObservabilityError
from .trace import TraceEvent

__all__ = [
    "CausalEvent",
    "CausalDag",
    "CriticalPath",
    "PathSegment",
    "AssertionFailure",
    "assertion_names",
    "check_assertions",
    "operation_stats",
    "Span",
    "TRANSCRIPT_CATEGORIES",
    "spans",
    "transcript",
]


@dataclass(frozen=True, slots=True)
class CausalEvent:
    """One parsed causal event (a node of the DAG)."""

    event_id: str
    trace_id: str
    kind: str
    time: float
    lamport: int
    site: str | None
    parents: tuple[str, ...]
    phase: str | None
    fields: tuple[tuple[str, object], ...]

    def field(self, key: str, default: object = None) -> object:
        """The value of one raw field (``default`` if absent)."""
        for name, value in self.fields:
            if name == key:
                return value
        return default

    @property
    def run_id(self) -> int | None:
        """The protocol run this event belongs to, if recorded.

        Raises :class:`ObservabilityError` if the recorded value is a
        string or float that names no integer (``"one"``, NaN, infinity).
        """
        value = self.field("run_id")
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            return None
        try:
            return int(value)
        except (ValueError, OverflowError) as exc:
            raise ObservabilityError(
                f"causal event {self.event_id!r} has run_id {value!r}, "
                "not an integer"
            ) from exc


def _event_from_fields(
    time: float, fields: Mapping[str, object]
) -> CausalEvent:
    try:
        event_id = str(fields["event_id"])
        trace_id = str(fields["trace_id"])
        kind = str(fields["event"])
        raw_lamport = fields["lamport"]
        raw_parents = fields["parents"]
        if not isinstance(raw_lamport, (int, float, str)):
            raise TypeError(f"lamport is {type(raw_lamport).__name__}")
        if not isinstance(raw_parents, (list, tuple)):
            raise TypeError(f"parents is {type(raw_parents).__name__}")
        lamport = int(raw_lamport)
        parents = tuple(str(p) for p in raw_parents)
    except (KeyError, TypeError, ValueError) as exc:
        raise ObservabilityError(f"malformed causal event: {exc}") from exc
    site = fields.get("site")
    phase = fields.get("phase")
    return CausalEvent(
        event_id=event_id,
        trace_id=trace_id,
        kind=kind,
        time=float(time),
        lamport=lamport,
        site=None if site is None else str(site),
        parents=parents,
        phase=None if phase is None else str(phase),
        fields=tuple(sorted(fields.items(), key=lambda item: item[0])),
    )


@dataclass(frozen=True, slots=True)
class PathSegment:
    """One edge of a critical path with its sim-time duration."""

    source: CausalEvent
    target: CausalEvent
    phase: str
    duration: float


@dataclass(frozen=True, slots=True)
class CriticalPath:
    """A root-to-event path taking the latest-finishing parent at each step."""

    events: tuple[CausalEvent, ...]

    @property
    def start(self) -> float:
        return self.events[0].time

    @property
    def end(self) -> float:
        return self.events[-1].time

    @property
    def total(self) -> float:
        """End-to-end sim time along the path."""
        return self.end - self.start

    @property
    def segments(self) -> tuple[PathSegment, ...]:
        """Consecutive edges; their durations telescope to :attr:`total`."""
        return tuple(
            PathSegment(
                source=a,
                target=b,
                phase=b.phase or b.kind,
                duration=b.time - a.time,
            )
            for a, b in zip(self.events, self.events[1:])
        )

    def by_phase(self) -> dict[str, float]:
        """Per-phase duration sums, in first-appearance order."""
        table: dict[str, float] = {}
        for segment in self.segments:
            table[segment.phase] = table.get(segment.phase, 0.0) + segment.duration
        return table

    def render(self) -> str:
        """Readable breakdown: one line per phase plus the total."""
        lines = [
            f"  {phase:<14} {duration:10.4f}"
            for phase, duration in self.by_phase().items()
        ]
        lines.append(f"  {'total':<14} {self.total:10.4f}")
        return "\n".join(lines)


class CausalDag:
    """The causal DAG of one exported trace log.

    One pass over the events indexes them by id, kind, trace id and run
    id, each index in recording order, so every query below reads only
    the events it names and the assertion catalog stays linear in the
    number of events.
    """

    def __init__(self, events: Iterable[CausalEvent]) -> None:
        self._events: list[CausalEvent] = []
        self._by_id: dict[str, CausalEvent] = {}
        self._children: dict[str, list[str]] = {}
        self._roots: list[CausalEvent] = []
        self._by_kind: dict[str, list[CausalEvent]] = {}
        self._by_trace: dict[str, list[CausalEvent]] = {}
        # None once some event's run_id raises: find then filters the other
        # pools, so the error comes from the query that reads that event.
        self._by_run: dict[int, list[CausalEvent]] | None = {}
        for event in events:
            if event.event_id in self._by_id:
                raise ObservabilityError(
                    f"duplicate causal event id {event.event_id!r}"
                )
            self._events.append(event)
            self._by_id[event.event_id] = event
            for parent in event.parents:
                self._children.setdefault(parent, []).append(event.event_id)
            if not event.parents:
                self._roots.append(event)
            self._by_kind.setdefault(event.kind, []).append(event)
            self._by_trace.setdefault(event.trace_id, []).append(event)
            if self._by_run is not None:
                try:
                    run_id = event.run_id
                except ObservabilityError:
                    self._by_run = None
                else:
                    if run_id is not None:
                        self._by_run.setdefault(run_id, []).append(event)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent]) -> "CausalDag":
        """Build from in-memory trace events (category ``causal`` only)."""
        return cls(
            _event_from_fields(event.time, dict(event.fields))
            for event in events
            if event.category == "causal"
        )

    @classmethod
    def from_jsonl(cls, text: str) -> "CausalDag":
        """Build from a JSONL export; non-causal lines are skipped."""
        parsed: list[CausalEvent] = []
        for line_number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ObservabilityError(
                    f"line {line_number} is not JSON: {exc}"
                ) from exc
            if record.get("category") != "causal":
                continue
            parsed.append(
                _event_from_fields(
                    float(record.get("time", 0.0)), record.get("fields", {})
                )
            )
        return cls(parsed)

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def events(self) -> tuple[CausalEvent, ...]:
        """All events, in recording order."""
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def get(self, event_id: str) -> CausalEvent:
        """Look an event up by id."""
        try:
            return self._by_id[event_id]
        except KeyError as exc:
            raise ObservabilityError(f"unknown event id {event_id!r}") from exc

    def __contains__(self, event_id: str) -> bool:
        return event_id in self._by_id

    def children(self, event_id: str) -> tuple[CausalEvent, ...]:
        """Direct causal successors of an event."""
        return tuple(self._by_id[c] for c in self._children.get(event_id, ()))

    def traces(self) -> tuple[str, ...]:
        """All trace ids, in first-appearance order."""
        return tuple(self._by_trace)

    def trace_events(self, trace_id: str) -> tuple[CausalEvent, ...]:
        """Events of one trace, in recording order."""
        return tuple(self._by_trace.get(trace_id, ()))

    def roots(self) -> tuple[CausalEvent, ...]:
        """Events with no parents (one per trace in a well-formed log)."""
        return tuple(self._roots)

    def find(
        self,
        kind: str | None = None,
        *,
        trace_id: str | None = None,
        run_id: int | None = None,
    ) -> tuple[CausalEvent, ...]:
        """Events matching the given filters, in recording order.

        Only the smallest index the filters name is scanned, and every
        filter is applied to it.
        """
        pools: list[Sequence[CausalEvent]] = [self._events]
        if kind is not None:
            pools.append(self._by_kind.get(kind, ()))
        if trace_id is not None:
            pools.append(self._by_trace.get(trace_id, ()))
        if run_id is not None and self._by_run is not None:
            pools.append(self._by_run.get(run_id, ()))
        return tuple(
            e
            for e in min(pools, key=len)
            if (kind is None or e.kind == kind)
            and (trace_id is None or e.trace_id == trace_id)
            and (run_id is None or e.run_id == run_id)
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def ancestors(self, event_id: str) -> frozenset[str]:
        """All event ids strictly happening-before an event."""
        seen: set[str] = set()
        stack = [p for p in self.get(event_id).parents if p in self._by_id]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(
                p for p in self._by_id[current].parents if p in self._by_id
            )
        return frozenset(seen)

    def happens_before(self, first: str, second: str) -> bool:
        """Whether ``first`` is a strict causal ancestor of ``second``."""
        return first in self.ancestors(second)

    def critical_path(self, event_id: str) -> CriticalPath:
        """The latest-finishing causal chain ending at an event.

        At each step the predecessor with the greatest ``(time, lamport,
        event_id)`` is taken -- the parent that actually gated this event
        in sim time, with deterministic tie-breaking.  Parents missing
        from the DAG (a truncated export) are skipped.
        """
        path = [self.get(event_id)]
        while True:
            parents = [
                self._by_id[p] for p in path[-1].parents if p in self._by_id
            ]
            if not parents:
                break
            path.append(
                max(parents, key=lambda e: (e.time, e.lamport, e.event_id))
            )
        path.reverse()
        return CriticalPath(tuple(path))


# ---------------------------------------------------------------------- #
# Happens-before assertion catalog
# ---------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class AssertionFailure:
    """One violated happens-before assertion, with the offending edge."""

    assertion: str
    detail: str
    events: tuple[str, ...]

    def describe(self) -> str:
        """``assertion: detail [event ids]`` for reports."""
        where = f" [{' -> '.join(self.events)}]" if self.events else ""
        return f"{self.assertion}: {self.detail}{where}"


def _check_acyclic(dag: CausalDag) -> list[AssertionFailure]:
    failures: list[AssertionFailure] = []
    state: dict[str, int] = {}  # 1 = on stack, 2 = done
    for start in dag.events:
        if state.get(start.event_id):
            continue
        stack: list[tuple[str, int]] = [(start.event_id, 0)]
        state[start.event_id] = 1
        while stack:
            node, index = stack[-1]
            parents = [p for p in dag.get(node).parents if p in dag]
            if index < len(parents):
                stack[-1] = (node, index + 1)
                parent = parents[index]
                mark = state.get(parent)
                if mark == 1:
                    failures.append(
                        AssertionFailure(
                            "acyclic",
                            "causal cycle through parent edge",
                            (parent, node),
                        )
                    )
                elif mark is None:
                    state[parent] = 1
                    stack.append((parent, 0))
            else:
                state[node] = 2
                stack.pop()
    return failures


def _check_parents_resolve(dag: CausalDag) -> list[AssertionFailure]:
    return [
        AssertionFailure(
            "parents-resolve",
            f"event {event.event_id} names unknown parent {parent}",
            (parent, event.event_id),
        )
        for event in dag.events
        for parent in event.parents
        if parent not in dag
    ]


def _check_lamport_monotone(dag: CausalDag) -> list[AssertionFailure]:
    failures = []
    for event in dag.events:
        for parent_id in event.parents:
            if parent_id not in dag:
                continue
            parent = dag.get(parent_id)
            if parent.lamport >= event.lamport:
                failures.append(
                    AssertionFailure(
                        "lamport-monotone",
                        f"lamport {parent.lamport} -> {event.lamport} "
                        "does not increase",
                        (parent_id, event.event_id),
                    )
                )
    return failures


def _check_time_monotone(dag: CausalDag) -> list[AssertionFailure]:
    failures = []
    for event in dag.events:
        for parent_id in event.parents:
            if parent_id not in dag:
                continue
            parent = dag.get(parent_id)
            if parent.time > event.time:
                failures.append(
                    AssertionFailure(
                        "time-monotone",
                        f"sim time runs backwards "
                        f"({parent.time:g} -> {event.time:g})",
                        (parent_id, event.event_id),
                    )
                )
    return failures


def _check_single_root(dag: CausalDag) -> list[AssertionFailure]:
    roots_by_trace: dict[str, list[str]] = {}
    for event in dag.events:
        if not event.parents:
            roots_by_trace.setdefault(event.trace_id, []).append(event.event_id)
    return [
        AssertionFailure(
            "single-root",
            f"trace {trace_id} has {len(roots)} root events",
            tuple(roots),
        )
        for trace_id, roots in roots_by_trace.items()
        if len(roots) > 1
    ]


def _sites_field(event: CausalEvent, key: str) -> tuple[str, ...]:
    """A list-of-sites field (``participants``, ``link``) as site names."""
    raw = event.field(key)
    if isinstance(raw, (list, tuple)):
        return tuple(str(member) for member in raw)
    return ()


def _check_commit_after_votes(dag: CausalDag) -> list[AssertionFailure]:
    """A commit causally follows a vote from every other participant.

    This is the "commit never precedes its quorum of votes" guarantee:
    the participants field of the commit event is the partition *P* the
    decision was taken over, and each member's vote (the coordinator
    votes implicitly by holding its own lock) must be an ancestor.
    """
    failures = []
    for commit in dag.find("commit"):
        participants = _sites_field(commit, "participants")
        ancestors = dag.ancestors(commit.event_id)
        votes_seen = {
            str(vote.field("voter"))
            for vote in dag.find("vote", run_id=commit.run_id)
            if vote.event_id in ancestors
        }
        for member in participants:
            if member == commit.site:
                continue
            if member not in votes_seen:
                failures.append(
                    AssertionFailure(
                        "commit-after-votes",
                        f"commit of run {commit.run_id} does not causally "
                        f"follow a vote from participant {member}",
                        (commit.event_id,),
                    )
                )
    return failures


def _check_install_within_participants(dag: CausalDag) -> list[AssertionFailure]:
    """No site outside the deciding partition *P* installs the commit.

    The operational form of "no event in a non-distinguished partition
    parents a commit": the only sites allowed to apply a committed
    version are the commit's participants (the PR-1 fork bug is exactly a
    late voter outside *P* installing via DecisionReply).
    """
    failures = []
    for install in dag.find("install"):
        participants = set(_sites_field(install, "participants"))
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


def _check_one_run_per_version(dag: CausalDag) -> list[AssertionFailure]:
    """Every install of one version carries one run id.

    Two runs installing the same version is a forked history: each
    decided the version on its own quorum, as when a participant forgets
    its in-doubt vote in a crash and joins a second quorum.
    """
    failures = []
    first: dict[object, tuple[int | None, CausalEvent]] = {}
    for install in dag.find("install"):
        version, run_id = install.field("version"), install.run_id
        first_run, seen = first.setdefault(version, (run_id, install))
        if first_run != run_id:
            failures.append(
                AssertionFailure(
                    "one-run-per-version",
                    f"version {version} installed by run {first_run} at "
                    f"{seen.site} and by run {run_id} at {install.site}",
                    (seen.event_id, install.event_id),
                )
            )
    return failures


_ASSERTIONS = {
    "parents-resolve": _check_parents_resolve,
    "acyclic": _check_acyclic,
    "lamport-monotone": _check_lamport_monotone,
    "time-monotone": _check_time_monotone,
    "single-root": _check_single_root,
    "commit-after-votes": _check_commit_after_votes,
    "install-within-participants": _check_install_within_participants,
    "one-run-per-version": _check_one_run_per_version,
}


def assertion_names() -> tuple[str, ...]:
    """The happens-before assertion catalog, in evaluation order."""
    return tuple(_ASSERTIONS)


def check_assertions(
    dag: CausalDag, names: Iterable[str] | None = None
) -> list[AssertionFailure]:
    """Run (a subset of) the assertion catalog; return all failures."""
    failures: list[AssertionFailure] = []
    for name in names if names is not None else assertion_names():
        try:
            checker = _ASSERTIONS[name]
        except KeyError as exc:
            known = ", ".join(assertion_names())
            raise ObservabilityError(
                f"unknown assertion {name!r} (known: {known})"
            ) from exc
        failures.extend(checker(dag))
    return failures


# ---------------------------------------------------------------------- #
# Per-operation statistics
# ---------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class OperationStats:
    """Latency and outcome of one traced operation."""

    trace_id: str
    run_id: int | None
    kind: str | None
    status: str | None
    latency: float | None


def operation_stats(dag: CausalDag) -> tuple[OperationStats, ...]:
    """Fold each operation's submit/finish events into one summary row.

    An operation is a trace whose root is a ``submit``; topology changes
    root traces of their own and have no row.
    """
    rows = []
    for trace_id in dag.traces():
        events = dag.trace_events(trace_id)
        root = next((e for e in events if not e.parents), None)
        finish = next((e for e in events if e.kind == "finish"), None)
        if root is None or root.kind != "submit":
            continue
        status = finish.field("status") if finish is not None else None
        rows.append(
            OperationStats(
                trace_id=trace_id,
                run_id=root.run_id,
                kind=(
                    str(root.field("op"))
                    if root.field("op") is not None
                    else None
                ),
                status=None if status is None else str(status),
                latency=(
                    finish.time - root.time if finish is not None else None
                ),
            )
        )
    return tuple(rows)


# ---------------------------------------------------------------------- #
# Views: the spans and the flat transcript
# ---------------------------------------------------------------------- #


@dataclass(slots=True, eq=False)
class Span:
    """A sim-time interval between two causal events; ``end`` None while open.

    A ``vote`` or ``catch-up`` span's ``parent`` is its run's ``run`` span.
    """

    name: str
    start: float
    end: float | None = None
    parent: "Span | None" = None
    run_id: int | None = None
    site: str | None = None

    @property
    def duration(self) -> float | None:
        """end - start once closed, else None."""
        return None if self.end is None else self.end - self.start


#: The record categories of :func:`transcript`.
TRANSCRIPT_CATEGORIES = ("run", "topology", "message", "span")
#: Deliveries that end a subordinate's in-doubt window for their run.
_DECISIONS = ("CommitMessage", "AbortMessage", "DecisionReply")
_TOPOLOGY = ("site-failure", "site-repair", "link-failure", "link-repair")


def _walk_spans(
    dag: CausalDag, opened: list[Span]
) -> Iterator[tuple[CausalEvent, list[Span]]]:
    """Each event, in recording order, with the spans it closes.

    A run's phase span closes before its ``run`` span; every span opened
    is appended to ``opened``.
    """
    runs: dict[int | None, Span] = {}
    phases: dict[int | None, Span] = {}  # the open vote or catch-up span
    in_doubt: dict[str | None, dict[int | None, Span]] = {}  # by site, by run

    def open_span(name: str, event: CausalEvent, parent: Span | None = None) -> Span:
        span = Span(name, event.time, None, parent, event.run_id, event.site)
        opened.append(span)
        return span

    for event in dag.events:
        kind, run_id = event.kind, event.run_id
        sent = event.field("message") if kind == "send" else None
        delivered = event.field("message") if kind == "deliver" else None
        closed: list[Span | None] = []
        if kind == "submit":
            runs[run_id] = open_span("run", event)
        elif kind == "lock-granted":
            phases[run_id] = open_span("vote", event, runs.get(run_id))
        elif sent == "CatchUpRequest":
            phases[run_id] = open_span("catch-up", event, runs.get(run_id))
        elif kind == "vote-lock-granted":
            in_doubt.setdefault(event.site, {})[run_id] = open_span("in-doubt", event)
        elif delivered in _DECISIONS:
            closed.append(in_doubt.get(event.site, {}).pop(run_id, None))
        elif kind == "site-failure":
            closed.extend(in_doubt.pop(event.site, {}).values())
        if kind in ("votes-closed", "finish") or delivered == "CatchUpReply":
            closed.append(phases.pop(run_id, None))
        if kind == "finish":
            closed.append(runs.pop(run_id, None))
        ended = [span for span in closed if span is not None]
        for span in ended:
            if event.time < span.start:
                raise ObservabilityError(
                    f"{span.name} span of run {span.run_id} closes at "
                    f"{event.time} before it opened at {span.start}"
                )
            span.end = event.time
        yield event, ended


def spans(dag: CausalDag) -> tuple[Span, ...]:
    """Every span of the trace: the closed ones, then the open ones.

    Each span runs from the event that opens it to the first that closes
    it (docs/OBSERVABILITY.md, "Span taxonomy"): ``run`` from ``submit``
    to ``finish``; ``vote`` from ``lock-granted`` to ``votes-closed``, and
    ``catch-up`` from the ``send`` of CatchUpRequest to the ``deliver`` of
    CatchUpReply, each or to ``finish`` if the run ends first; ``in-doubt``
    from ``vote-lock-granted`` to the site's ``deliver`` of the run's
    decision or to its ``site-failure``.  Closed spans come in close
    order, children first, so folding them in order is exact.
    """
    opened: list[Span] = []
    closed = [span for _, ended in _walk_spans(dag, opened) for span in ended]
    return (*closed, *(span for span in opened if span.end is None))


def transcript(dag: CausalDag) -> tuple[TraceEvent, ...]:
    """The flat ``repro trace`` records, derived from the causal events.

    ``run`` records come from ``submit`` and ``finish``, ``message``
    records from ``deliver`` and ``lose``, ``topology`` records from the
    topology roots, and each ``span`` record follows the event that
    closes its span.
    """
    records: list[TraceEvent] = []
    ops: dict[int | None, object] = {}
    for event, closed in _walk_spans(dag, []):
        kind, run_id, site, time = event.kind, event.run_id, event.site, event.time
        if kind == "submit":
            ops[run_id] = event.field("op")
            line = f"run {run_id} [{ops[run_id]}] submitted at {site}"
            records.append(TraceEvent(time, "run", line))
        elif kind in ("deliver", "lose"):
            line = f"{event.field('source')} -> {site} {event.field('message')}"
            lost = f" LOST ({event.field('reason')})" if kind == "lose" else ""
            records.append(TraceEvent(time, "message", f"{line}(run {run_id}){lost}"))
        elif kind in _TOPOLOGY:
            noun, _, change = kind.partition("-")
            where = site if noun == "site" else "-".join(_sites_field(event, "link"))
            verb = "failed" if change == "failure" else "repaired"
            records.append(TraceEvent(time, "topology", f"{noun} {where} {verb}"))
        for span in closed:
            line = f"{span.name} took {span.duration:.4f}"
            records.append(TraceEvent(time, "span", line))
        if kind == "finish":
            reason = event.field("reason")
            line = f"run {run_id} [{ops.get(run_id, '?')}] at {site}: "
            line += str(event.field("status")) + (f" ({reason})" if reason else "")
            records.append(TraceEvent(time, "run", line))
    return tuple(records)
