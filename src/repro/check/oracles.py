"""Invariant oracles: the properties checked in every explored state.

Each oracle is a pure predicate over the current canonical snapshot (and,
for the transition properties, the predecessor snapshot), with read-only
access to the harness for protocol decisions that need live metadata.  An
oracle returns ``None`` when the state is fine, or a human-readable
violation detail.  The catalog (see docs/CHECKING.md):

``no-fork``
    No version number is ever committed twice with different payloads or
    by different runs, across all site histories (Theorem 1's one-copy
    serial history).
``participants-only``
    Every applied update at site *s* for run *r* requires *s* to be a
    member of the partition *P* the coordinator durably logged for *r* --
    the exact property the PR-1 fork bug violated (late voters installing
    commits via ``DecisionReply``).
``at-most-one-distinguished``
    Over the current topology, at most one connected component satisfies
    ``Is_Distinguished`` (mutual exclusion of update-capable partitions);
    a :class:`~repro.errors.MetadataInvariantError` while summarising a
    partition also counts as a violation.
``vn-monotone``
    Per-site version numbers never decrease across a transition (VN is
    durable and update-monotone).
``durable-chain``
    The union of committed versions is a gapless chain ``0..K`` and never
    shrinks across a transition (committed updates survive failures and
    catch-up).
``lock-safety``
    A held lock always has a live justification: its run is still active
    at the coordinator, or the holding site is in doubt on that run
    (no leaked locks; at most one holder per site is structural).

The first three and ``lock-safety`` are state properties
(:data:`STATE_ORACLES`): they never read the predecessor, so the
explorer evaluates them once per distinct state.  ``vn-monotone`` and
``durable-chain`` compare against it and run on every new transition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..errors import CheckError, MetadataInvariantError
from .state import ClusterSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .harness import CheckHarness

__all__ = [
    "Violation",
    "ORACLES",
    "STATE_ORACLES",
    "default_oracle_names",
    "check_oracles",
]


@dataclass(frozen=True, slots=True)
class Violation:
    """One invariant violation found at the end of a schedule."""

    oracle: str
    detail: str

    def describe(self) -> str:
        return f"{self.oracle}: {self.detail}"


OracleFn = Callable[
    ["CheckHarness", ClusterSnapshot, ClusterSnapshot | None], "str | None"
]


def _history_entries(snapshot: ClusterSnapshot):
    """Yield (site, version, value_key, run_id) over all site histories."""
    for record in snapshot.site_state:
        site, history = record[0], record[3]
        for version, value, run_id in history:
            yield site, version, value, run_id


def _committed_map(snapshot: ClusterSnapshot) -> dict[int, tuple[int, str]]:
    """version -> (run_id, value_key), raising on forked entries."""
    seen: dict[int, tuple[int, str]] = {}
    for site, version, value, run_id in _history_entries(snapshot):
        entry = (run_id, value)
        if version in seen and seen[version] != entry:
            raise CheckError(
                f"version {version}: {seen[version]!r} vs {entry!r} at {site}"
            )
        seen.setdefault(version, entry)
    return seen


def no_fork(
    harness: "CheckHarness",
    snapshot: ClusterSnapshot,
    previous: ClusterSnapshot | None,
) -> str | None:
    try:
        _committed_map(snapshot)
    except CheckError as exc:
        return f"forked history: {exc}"
    return None


def participants_only(
    harness: "CheckHarness",
    snapshot: ClusterSnapshot,
    previous: ClusterSnapshot | None,
) -> str | None:
    # Durable decision logs, across all sites: run -> participants.
    participants: dict[int, tuple] = {}
    for site_record in snapshot.site_state:
        for run_id, committed, _meta, _value, members in site_record[4]:
            if committed:
                participants[run_id] = members
    for site, version, _value, run_id in _history_entries(snapshot):
        if run_id == 0:  # the initial version predates any run
            continue
        logged = participants.get(run_id)
        if logged is None:
            return (
                f"site {site} applied version {version} of run {run_id} "
                "with no durable commit decision anywhere"
            )
        if site not in logged:
            return (
                f"site {site} applied version {version} of run {run_id} "
                f"but P(run {run_id}) = {sorted(logged)} excludes it"
            )
    return None


def at_most_one_distinguished(
    harness: "CheckHarness",
    snapshot: ClusterSnapshot,
    previous: ClusterSnapshot | None,
) -> str | None:
    cluster = harness.cluster
    distinguished = []
    for partition in cluster.topology.partitions():
        copies = {site: cluster.node(site).metadata for site in partition}
        try:
            decision = cluster.protocol.is_distinguished(partition, copies)
        except MetadataInvariantError as exc:
            return f"metadata invariant broken in {sorted(partition)}: {exc}"
        if decision.granted:
            distinguished.append(sorted(partition))
    if len(distinguished) > 1:
        return f"multiple distinguished partitions: {distinguished}"
    return None


def vn_monotone(
    harness: "CheckHarness",
    snapshot: ClusterSnapshot,
    previous: ClusterSnapshot | None,
) -> str | None:
    if previous is None:
        return None
    before = {record[0]: record[1] for record in previous.site_state}
    for record in snapshot.site_state:
        site, meta = record[0], record[1]
        old = before.get(site)
        if old is not None and meta[0] < old[0]:
            return f"site {site} version went backwards: {old[0]} -> {meta[0]}"
    return None


def durable_chain(
    harness: "CheckHarness",
    snapshot: ClusterSnapshot,
    previous: ClusterSnapshot | None,
) -> str | None:
    try:
        committed = _committed_map(snapshot)
    except CheckError:
        return None  # no-fork reports the conflict itself
    expected = set(range(max(committed) + 1)) if committed else set()
    if set(committed) != expected:
        missing = sorted(expected - set(committed))
        return f"committed chain has gaps: missing versions {missing}"
    if previous is not None:
        try:
            before = _committed_map(previous)
        except CheckError:
            return None
        for version, entry in before.items():
            if committed.get(version) != entry:
                return (
                    f"committed version {version} {entry!r} was lost or "
                    f"rewritten to {committed.get(version)!r}"
                )
    return None


def lock_safety(
    harness: "CheckHarness",
    snapshot: ClusterSnapshot,
    previous: ClusterSnapshot | None,
) -> str | None:
    cluster = harness.cluster
    for record in snapshot.site_state:
        site, holder, in_doubt = record[0], record[5], record[7]
        if holder is None:
            continue
        in_doubt_runs = {run_id for run_id, _coordinator in in_doubt}
        if cluster.is_run_active(holder) or holder in in_doubt_runs:
            continue
        return (
            f"site {site} holds its lock for run {holder}, which is "
            "neither active nor in doubt (leaked lock)"
        )
    return None


#: Catalog, in the (deterministic) order oracles are evaluated.
ORACLES: dict[str, OracleFn] = {
    "no-fork": no_fork,
    "participants-only": participants_only,
    "at-most-one-distinguished": at_most_one_distinguished,
    "vn-monotone": vn_monotone,
    "durable-chain": durable_chain,
    "lock-safety": lock_safety,
}

#: The oracles whose verdict is a function of the snapshot alone: they
#: ignore ``previous``, and what they read live (partitions, metadata,
#: active runs) the snapshot encodes.  The explorer runs them once per
#: distinct state; every other oracle runs on every new transition.
STATE_ORACLES = frozenset(
    {"no-fork", "participants-only", "at-most-one-distinguished", "lock-safety"}
)


def default_oracle_names() -> tuple[str, ...]:
    """All registered oracle names, evaluation order."""
    return tuple(ORACLES)


def check_oracles(
    names: tuple[str, ...],
    harness: "CheckHarness",
    snapshot: ClusterSnapshot,
    previous: ClusterSnapshot | None,
) -> Violation | None:
    """Evaluate the selected oracles; first violation wins (or None)."""
    for name in names:
        oracle = ORACLES.get(name)
        if oracle is None:
            known = ", ".join(sorted(ORACLES))
            raise CheckError(f"unknown oracle {name!r}; known: {known}")
        detail = oracle(harness, snapshot, previous)
        if detail is not None:
            return Violation(name, detail)
    return None
