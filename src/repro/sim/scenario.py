"""Scripted partition scenarios and their replay (experiment E1, Fig. 1).

A :class:`PartitionScenario` is a timeline of *epochs*; each epoch lists
the disjoint groups of mutually communicating sites (sites in no group are
down).  Replaying a scenario against a protocol applies the paper's
Section VI-A convention -- "at least one update arrives at each partition
shortly after each partition change" -- so every group attempts one update
per epoch, and the per-group accept/deny decisions form the trace.

:func:`figure1_scenario` reconstructs the partition graph of Fig. 1, whose
narrative fixes the timeline exactly:

====  =======================  =============================================
time  partitions               narrative facts (Section VI-A)
====  =======================  =============================================
0     ABCDE                    initial connected network
1     ABC / DE                 all four algorithms accept in ABC
2     AB / C / DE              dynamic algorithms accept in AB; voting denies
3     A / B / CDE              voting accepts in CDE; dynamic-linear in A
4     A / BC / DE              dynamic-linear accepts in A; hybrid in BC
====  =======================  =============================================

The paper selects distinguished sites "according to the linear order" with
site A ranked highest (its Section IV example sets DS to B for the
partition BCDE), so :func:`paper_protocols` builds the ordered protocols
with that reversed-alphabet order.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ..core.base import ReplicaControlProtocol
from ..core.decision import UpdateOutcome
from ..core.metadata import ReplicaMetadata
from ..core.registry import PAPER_PROTOCOLS, PROTOCOLS
from ..errors import ScheduleError
from ..types import SiteId, validate_sites

__all__ = [
    "Epoch",
    "GroupDecision",
    "EpochResult",
    "ScenarioTrace",
    "PartitionScenario",
    "figure1_scenario",
    "paper_order",
    "paper_protocols",
]


@dataclass(frozen=True, slots=True)
class Epoch:
    """One partition layout, in force from ``time`` until the next epoch."""

    time: float
    groups: tuple[frozenset[SiteId], ...]


@dataclass(frozen=True, slots=True)
class GroupDecision:
    """The update outcome for one group in one epoch."""

    group: frozenset[SiteId]
    outcome: UpdateOutcome

    @property
    def accepted(self) -> bool:
        """True iff the group committed its update."""
        return self.outcome.accepted

    def label(self) -> str:
        """The group as a compact string, e.g. ``"ABC"``."""
        return "".join(sorted(self.group))


@dataclass(frozen=True, slots=True)
class EpochResult:
    """All group decisions for one epoch of a replay."""

    time: float
    decisions: tuple[GroupDecision, ...]

    def accepted_groups(self) -> tuple[frozenset[SiteId], ...]:
        """Groups whose update committed in this epoch."""
        return tuple(d.group for d in self.decisions if d.accepted)


class ScenarioTrace:
    """The full replay record of one protocol over one scenario."""

    def __init__(
        self, protocol_name: str, results: Sequence[EpochResult]
    ) -> None:
        self._protocol_name = protocol_name
        self._results = tuple(results)

    @property
    def protocol_name(self) -> str:
        """Short name of the replayed protocol."""
        return self._protocol_name

    @property
    def results(self) -> tuple[EpochResult, ...]:
        """Per-epoch results, chronological."""
        return self._results

    def accepted_at(self, time: float) -> tuple[frozenset[SiteId], ...]:
        """Groups that committed at the epoch starting at ``time``."""
        for result in self._results:
            if result.time == time:
                return result.accepted_groups()
        raise ScheduleError(f"no epoch starts at time {time}")

    def distinguished_at(self, time: float) -> frozenset[SiteId] | None:
        """The (unique) distinguished group at ``time``, or None.

        Raises ``AssertionError`` if the protocol ever granted two groups in
        the same epoch -- the safety violation pessimistic protocols forbid.
        """
        accepted = self.accepted_at(time)
        assert len(accepted) <= 1, (
            f"{self._protocol_name} granted two partitions at t={time}: "
            f"{[sorted(g) for g in accepted]}"
        )
        return accepted[0] if accepted else None

    def format_table(self) -> str:
        """Multi-line table: one row per epoch, accept/deny per group."""
        lines = [f"protocol: {self._protocol_name}"]
        for result in self._results:
            cells = []
            for decision in result.decisions:
                verdict = "ACCEPT" if decision.accepted else "deny"
                cells.append(f"{decision.label()}:{verdict}")
            lines.append(f"  t={result.time:g}  " + "  ".join(cells))
        return "\n".join(lines)


class PartitionScenario:
    """A validated partition timeline, replayable against any protocol.

    Besides the constructor, scenarios can be written in a compact script
    form (see :meth:`from_script`)::

        PartitionScenario.from_script(
            "ABCDE",
            \"\"\"
            0: ABCDE
            1: ABC / DE
            2: AB / C / DE
            \"\"\",
        )
    """

    def __init__(
        self,
        sites: Sequence[SiteId],
        epochs: Iterable[tuple[float, Iterable[Iterable[SiteId]]]],
    ) -> None:
        self._sites = frozenset(validate_sites(sites))
        built: list[Epoch] = []
        previous_time = None
        for time, groups in epochs:
            group_sets = tuple(frozenset(g) for g in groups)
            assigned: set[SiteId] = set()
            for group in group_sets:
                if not group:
                    raise ScheduleError("scenario groups must be nonempty")
                if group & assigned:
                    raise ScheduleError(
                        f"overlapping groups at t={time}: {sorted(group & assigned)}"
                    )
                if not group <= self._sites:
                    raise ScheduleError(
                        f"unknown sites at t={time}: {sorted(group - self._sites)}"
                    )
                assigned |= group
            if previous_time is not None and time <= previous_time:
                raise ScheduleError(
                    f"epoch times must increase: {time} after {previous_time}"
                )
            previous_time = time
            built.append(Epoch(time, group_sets))
        if not built:
            raise ScheduleError("a scenario needs at least one epoch")
        self._epochs = tuple(built)

    @classmethod
    def from_script(
        cls, sites: Sequence[SiteId], script: str
    ) -> "PartitionScenario":
        """Parse a partition-graph script.

        One epoch per nonempty line: ``<time>: <group> / <group> / ...``.
        Within a group, sites are separated by commas or whitespace; a
        bare token whose every character names a site (the paper's
        single-letter style) is expanded, so ``ABC`` means ``A, B, C``.
        Lines starting with ``#`` are comments.
        """
        site_set = set(validate_sites(sites))
        epochs: list[tuple[float, list[set[SiteId]]]] = []
        for raw_line in script.splitlines():
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            head, _, body = line.partition(":")
            if not body:
                raise ScheduleError(f"missing ':' in scenario line {line!r}")
            try:
                time = float(head.strip())
            except ValueError:
                raise ScheduleError(
                    f"bad epoch time {head.strip()!r} in line {line!r}"
                ) from None
            groups: list[set[SiteId]] = []
            for chunk in body.split("/"):
                chunk = chunk.strip()
                if not chunk:
                    raise ScheduleError(f"empty group in line {line!r}")
                members: set[SiteId] = set()
                for token in chunk.replace(",", " ").split():
                    if token in site_set:
                        members.add(token)
                    elif all(ch in site_set for ch in token):
                        members.update(token)
                    else:
                        raise ScheduleError(
                            f"unknown site token {token!r} in line {line!r}"
                        )
                groups.append(members)
            epochs.append((time, groups))
        return cls(sites, epochs)

    @property
    def sites(self) -> frozenset[SiteId]:
        """All sites of the scenario."""
        return self._sites

    @property
    def epochs(self) -> tuple[Epoch, ...]:
        """The validated timeline."""
        return self._epochs

    def render_timeline(
        self, traces: dict[str, ScenarioTrace] | None = None
    ) -> str:
        """ASCII rendering of the partition graph (the Fig. 1 picture).

        With ``traces`` given, each epoch row is annotated with the
        distinguished partition of each protocol (or ``-``).
        """
        lines = []
        for epoch in self._epochs:
            groups = "  ".join(
                "[" + "".join(sorted(g)) + "]" for g in epoch.groups
            )
            down = self._sites - frozenset().union(*epoch.groups)
            if down:
                groups += "  down:" + "".join(sorted(down))
            row = f"t={epoch.time:<4g} {groups}"
            if traces:
                marks = []
                for name, trace in traces.items():
                    winner = trace.distinguished_at(epoch.time)
                    label = "".join(sorted(winner)) if winner else "-"
                    marks.append(f"{name}={label}")
                row += "   " + "  ".join(marks)
            lines.append(row)
        return "\n".join(lines)

    def replay(self, protocol: ReplicaControlProtocol) -> ScenarioTrace:
        """Replay the scenario: one update attempt per group per epoch."""
        if protocol.sites != self._sites:
            raise ScheduleError(
                "protocol site set does not match the scenario's sites"
            )
        copies: dict[SiteId, ReplicaMetadata] = dict.fromkeys(
            self._sites, protocol.initial_metadata()
        )
        results: list[EpochResult] = []
        for epoch in self._epochs:
            decisions: list[GroupDecision] = []
            for group in sorted(epoch.groups, key=sorted):
                outcome = protocol.attempt_update(group, copies)
                if outcome.accepted:
                    assert outcome.metadata is not None
                    for site in group:
                        copies[site] = outcome.metadata
                decisions.append(GroupDecision(group, outcome))
            results.append(EpochResult(epoch.time, tuple(decisions)))
        return ScenarioTrace(protocol.name, results)

    def replay_all(
        self, protocols: Iterable[ReplicaControlProtocol]
    ) -> dict[str, ScenarioTrace]:
        """Replay against several protocols; keyed by protocol name."""
        return {p.name: self.replay(p) for p in protocols}


#: The five sites of the paper's running example.
FIGURE1_SITES: tuple[SiteId, ...] = ("A", "B", "C", "D", "E")


def paper_order(sites: Sequence[SiteId]) -> tuple[SiteId, ...]:
    """The paper's linear order: alphabetically first is *greatest*.

    The library's order parameter lists sites ascending, so the paper's
    convention is the reverse of the sorted site list.
    """
    return tuple(sorted(sites, reverse=True))


def paper_protocols(
    sites: Sequence[SiteId] = FIGURE1_SITES,
    names: Sequence[str] = PAPER_PROTOCOLS,
) -> list[ReplicaControlProtocol]:
    """The compared algorithms, built with the paper's site ordering."""
    order = paper_order(sites)
    return [PROTOCOLS[name](sites, order=order) for name in names]


def figure1_scenario() -> PartitionScenario:
    """The partition graph of Fig. 1 (see the module docstring table)."""
    return PartitionScenario(
        FIGURE1_SITES,
        [
            (0.0, [{"A", "B", "C", "D", "E"}]),
            (1.0, [{"A", "B", "C"}, {"D", "E"}]),
            (2.0, [{"A", "B"}, {"C"}, {"D", "E"}]),
            (3.0, [{"A"}, {"B"}, {"C", "D", "E"}]),
            (4.0, [{"A"}, {"B", "C"}, {"D", "E"}]),
        ],
    )
