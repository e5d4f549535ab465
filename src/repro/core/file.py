"""A replicated logical file managed by a replica control protocol.

:class:`ReplicatedFile` is the highest-level convenience object of the core
API: it owns one copy of the file per site (data plus metadata), routes
reads and writes through the protocol's quorum machinery, performs the
catch-up phase for stale partition members, and keeps a committed-write log
that tests and the consistency checker use to verify one-copy behaviour
(every committed version forms a single linear chain -- the mutual
consistency goal of Section II and the substance of Theorem 1).

It deliberately models the *state* semantics of the protocol -- who may
commit, what metadata results -- not the message exchanges; the message
level (locks, two-phase commit, restart) lives in :mod:`repro.netsim`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

from ..errors import QuorumDenied
from ..types import SiteId
from .base import ReplicaControlProtocol
from .decision import QuorumDecision, UpdateContext, UpdateOutcome
from .metadata import ReplicaMetadata

__all__ = ["WriteRecord", "ReplicatedFile"]


@dataclass(frozen=True, slots=True)
class WriteRecord:
    """One committed write: version installed, value, committing partition."""

    version: int
    value: Any
    partition: frozenset[SiteId]
    decision: QuorumDecision


class ReplicatedFile:
    """One logical file replicated at every site of a protocol.

    Parameters
    ----------
    protocol:
        The replica control protocol managing this file.  The protocol's
        site set defines where copies live.
    initial_value:
        The value stored at every copy at creation time (version 0).
    """

    def __init__(
        self, protocol: ReplicaControlProtocol, initial_value: Any = None
    ) -> None:
        self._protocol = protocol
        meta = protocol.initial_metadata()
        self._meta: dict[SiteId, ReplicaMetadata] = dict.fromkeys(protocol.sites, meta)
        self._data: dict[SiteId, Any] = dict.fromkeys(protocol.sites, initial_value)
        self._log: list[WriteRecord] = []

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    @property
    def protocol(self) -> ReplicaControlProtocol:
        """The protocol managing this file."""
        return self._protocol

    @property
    def sites(self) -> frozenset[SiteId]:
        """Sites holding a copy."""
        return self._protocol.sites

    @property
    def log(self) -> tuple[WriteRecord, ...]:
        """All committed writes, in commit order."""
        return tuple(self._log)

    def metadata(self, site: SiteId) -> ReplicaMetadata:
        """The (VN, SC, DS) triple currently stored at ``site``."""
        return self._meta[site]

    def value(self, site: SiteId) -> Any:
        """The file contents currently stored at ``site``."""
        return self._data[site]

    def copies(self) -> dict[SiteId, ReplicaMetadata]:
        """Snapshot of every copy's metadata (a fresh dict)."""
        return dict(self._meta)

    def current_version(self) -> int:
        """The largest version number stored anywhere."""
        return max(meta.version for meta in self._meta.values())

    def describe(self) -> str:
        """Multi-line rendering in the paper's tabular example style."""
        lines = []
        for site in sorted(self.sites):
            lines.append(f"  {site}: {self._meta[site].describe()}")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #

    def is_distinguished(self, partition: Iterable[SiteId]) -> QuorumDecision:
        """Ask the protocol whether ``partition`` may process updates."""
        return self._protocol.is_distinguished(frozenset(partition), self._meta)

    def try_write(
        self,
        partition: Iterable[SiteId],
        value: Any,
        context: UpdateContext | None = None,
    ) -> UpdateOutcome:
        """Attempt a write from within ``partition``.

        On acceptance the new value and metadata are installed at every
        partition member (stale members catch up first, which under the
        state semantics simply means they receive the current value before
        the new one overwrites it -- observable only through the log).
        Returns the :class:`UpdateOutcome` either way.
        """
        members = frozenset(partition)
        outcome = self._protocol.attempt_update(members, self._meta, context)
        if outcome.accepted:
            assert outcome.metadata is not None
            for site in members:
                self._meta[site] = outcome.metadata
                self._data[site] = value
            self._log.append(
                WriteRecord(outcome.metadata.version, value, members, outcome.decision)
            )
        return outcome

    def write(
        self,
        partition: Iterable[SiteId],
        value: Any,
        context: UpdateContext | None = None,
    ) -> UpdateOutcome:
        """Write, raising :class:`QuorumDenied` if the partition lacks quorum."""
        outcome = self.try_write(partition, value, context)
        if not outcome.accepted:
            raise QuorumDenied(
                f"write denied in partition {''.join(sorted(frozenset(partition)))}: "
                + outcome.decision.explain()
            )
        return outcome

    def read(self, partition: Iterable[SiteId]) -> Any:
        """Read the current value from within ``partition``.

        Reads are handled as if they were updates, except that no metadata
        changes (footnote 5 of the paper): the partition must hold a read
        quorum (by default the distinguished-partition rule itself;
        weighted voting may configure a cheaper Gifford read quorum), and
        the value returned is the one held by the sites with the largest
        version number in the partition.
        """
        members = frozenset(partition)
        decision = self._protocol.read_decision(members, self._meta)
        if not decision.granted:
            raise QuorumDenied(
                f"read denied in partition {''.join(sorted(members))}: "
                + decision.explain()
            )
        holder = next(iter(decision.current))
        return self._data[holder]

    def make_current(
        self, site: SiteId, partition: Iterable[SiteId]
    ) -> UpdateOutcome:
        """Run the restart protocol for a recovered ``site`` (Make_Current).

        Whenever the restart protocol permits an old copy to catch up, the
        operation is treated like an update: version numbers of the
        participating copies are incremented by one (Section V-C).  The
        value written is the current value.
        """
        members = frozenset(partition)
        if site not in members:
            raise QuorumDenied(
                f"recovering site {site} must belong to its own partition"
            )
        decision = self._protocol.is_distinguished(members, self._meta)
        if not decision.granted:
            return UpdateOutcome(False, decision, None, frozenset())
        holder = next(iter(decision.current))
        return self.try_write(members, self._data[holder])

    # ------------------------------------------------------------------ #
    # Consistency checking
    # ------------------------------------------------------------------ #

    def check_linear_history(self) -> None:
        """Assert the committed writes form a single linear version chain.

        Raises ``AssertionError`` when two committed writes installed the
        same version (a forked history -- the violation a correct pessimistic
        protocol can never produce) or when consecutive distinguished
        partitions share no copy.
        """
        versions = [record.version for record in self._log]
        assert versions == sorted(versions), f"log out of order: {versions}"
        assert len(set(versions)) == len(versions), (
            f"forked history: duplicate versions in {versions}"
        )
        for earlier, later in zip(self._log, self._log[1:]):
            assert later.version == earlier.version + 1, (
                f"version gap between {earlier.version} and {later.version}"
            )
            # The committing partition read version M = earlier.version from
            # one of its members, so consecutive distinguished partitions
            # share at least that copy (the Catch_Up guarantee).
            assert later.decision.max_version == earlier.version, (
                f"write of version {later.version} was not derived from "
                f"version {earlier.version}"
            )
            assert later.decision.current <= later.partition
