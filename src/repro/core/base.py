"""Abstract base class shared by all replica control protocols.

A protocol is configured once with the full site set (and, for the ordered
protocols, a total order over the sites) and is thereafter a *pure* decision
procedure: given the metadata of the copies reachable in a partition it
decides whether the partition is distinguished (``Is_Distinguished``,
Section V-B) and, if so, what metadata an update installs (``Do_Update``).

Purity matters: the same protocol object is shared by the Monte-Carlo
simulator, the message-level simulator, and the automatic Markov chain
builder, each of which replays the decision procedure against thousands of
states.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Mapping, Sequence

from ..errors import ProtocolError
from ..types import SiteId, canonical_order, validate_sites
from .decision import QuorumDecision, Rule, UpdateContext, UpdateOutcome
from .metadata import ReplicaMetadata, partition_summary

__all__ = ["ReplicaControlProtocol"]


class ReplicaControlProtocol(abc.ABC):
    """Common interface of the protocol family.

    Parameters
    ----------
    sites:
        All sites holding a copy of the replicated file.
    order:
        Optional explicit total order (used by dynamic-linear and hybrid to
        pick the distinguished site of an even-cardinality update).  Defaults
        to lexicographic order, as in the paper's examples.
    """

    #: Short identifier used in tables, traces and the CLI.
    name: str = "abstract"

    def __init__(
        self, sites: Sequence[SiteId], order: Sequence[SiteId] | None = None
    ) -> None:
        self._sites = frozenset(validate_sites(sites))
        if order is None:
            self._order = canonical_order(self._sites)
        else:
            ordered = validate_sites(order)
            if frozenset(ordered) != self._sites:
                raise ProtocolError(
                    f"order {ordered!r} does not cover the site set exactly"
                )
            self._order = ordered
        self._rank = {site: i for i, site in enumerate(self._order)}

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #

    @property
    def sites(self) -> frozenset[SiteId]:
        """All sites holding a copy of the file."""
        return self._sites

    @property
    def n_sites(self) -> int:
        """Number of replicas *n*."""
        return len(self._sites)

    @property
    def order(self) -> tuple[SiteId, ...]:
        """The a priori total order over the sites (ascending)."""
        return self._order

    def greatest(self, sites: Iterable[SiteId]) -> SiteId:
        """The greatest member of ``sites`` in the protocol's total order."""
        chosen = max(sites, key=self._rank.__getitem__, default=None)
        if chosen is None:
            raise ProtocolError("cannot take the greatest of an empty site set")
        return chosen

    def initial_metadata(self) -> ReplicaMetadata:
        """Metadata installed at every copy when the file is created.

        Section V-A: ``VN = 0`` and ``SC = n`` initially.  The distinguished
        entry starts empty unless a subclass needs one (dynamic-linear sets
        it when *n* is even; hybrid additionally when *n* = 3).
        """
        return ReplicaMetadata(0, self.n_sites, self._initial_distinguished())

    def _initial_distinguished(self) -> tuple[SiteId, ...]:
        """Distinguished entry for the initial all-sites 'update'."""
        return ()

    def stale_placeholder(self) -> ReplicaMetadata:
        """Version-0 metadata standing in for an arbitrarily stale copy.

        The chain builders give non-current sites this placeholder: only
        its (low) version number can ever influence a decision.  Protocols
        with custom metadata types override this to return their own kind.
        """
        return ReplicaMetadata(0, self.n_sites, ())

    # ------------------------------------------------------------------ #
    # Decision procedure
    # ------------------------------------------------------------------ #

    def _check_partition(
        self, partition: Iterable[SiteId]
    ) -> frozenset[SiteId]:
        members = frozenset(partition)
        if not members:
            raise ProtocolError("a partition must contain at least one site")
        strangers = members - self._sites
        if strangers:
            raise ProtocolError(
                f"partition contains sites without a copy: {sorted(strangers)}"
            )
        return members

    def is_distinguished(
        self,
        partition: Iterable[SiteId],
        copies: Mapping[SiteId, ReplicaMetadata],
    ) -> QuorumDecision:
        """Decide whether ``partition`` is the distinguished partition.

        ``copies`` maps each partition member to its metadata; members
        missing from ``copies`` are treated as having no copy, which the
        protocols of this paper never allow (every site stores a copy), so a
        missing member raises :class:`ProtocolError`.
        """
        return self._decide(*self._summarise(partition, copies))

    def _summarise(
        self,
        partition: Iterable[SiteId],
        copies: Mapping[SiteId, ReplicaMetadata],
    ) -> tuple[frozenset[SiteId], int, frozenset[SiteId], ReplicaMetadata]:
        """``(P, M, I, meta)`` for a checked partition, every member with a copy."""
        members = self._check_partition(partition)
        missing = [s for s in members if s not in copies]
        if missing:
            raise ProtocolError(
                f"no metadata supplied for partition members {sorted(missing)}"
            )
        return (members, *partition_summary(copies, members))

    @abc.abstractmethod
    def _decide(
        self,
        partition: frozenset[SiteId],
        max_version: int,
        current: frozenset[SiteId],
        meta: ReplicaMetadata,
    ) -> QuorumDecision:
        """Protocol-specific quorum rule given the partition summary."""

    def read_decision(
        self,
        partition: Iterable[SiteId],
        copies: Mapping[SiteId, ReplicaMetadata],
    ) -> QuorumDecision:
        """Decide whether ``partition`` may serve reads.

        The paper handles read-only requests "as if they were updates"
        (footnote 5), so the default is exactly :meth:`is_distinguished`.
        Protocols with separate read quorums (Gifford's weighted voting
        with ``r + w > total``) override this.
        """
        return self.is_distinguished(partition, copies)

    @abc.abstractmethod
    def _commit_metadata(
        self,
        partition: frozenset[SiteId],
        decision: QuorumDecision,
        meta: ReplicaMetadata,
        context: UpdateContext | None = None,
    ) -> ReplicaMetadata:
        """Metadata installed at all partition members by ``Do_Update``."""

    def attempt_update(
        self,
        partition: Iterable[SiteId],
        copies: Mapping[SiteId, ReplicaMetadata],
        context: UpdateContext | None = None,
    ) -> UpdateOutcome:
        """Run ``Is_Distinguished`` followed by ``Do_Update`` if granted.

        Returns an :class:`UpdateOutcome`; on acceptance, the caller installs
        ``outcome.metadata`` at every partition member (the stale members --
        the set ``P - I`` -- additionally copy the file contents from a
        member of *I*; the ``Catch_Up`` phase).  ``context`` carries optional
        environmental knowledge (see :class:`UpdateContext`).
        """
        members, max_version, current, meta = self._summarise(partition, copies)
        decision = self._decide(members, max_version, current, meta)
        if not decision.granted:
            return UpdateOutcome(False, decision, None, frozenset())
        new_meta = self._commit_metadata(members, decision, meta, context)
        return UpdateOutcome(True, decision, new_meta, members - current)

    # ------------------------------------------------------------------ #
    # Shared rule fragments
    # ------------------------------------------------------------------ #

    @staticmethod
    def _dynamic_majority(
        current: frozenset[SiteId], cardinality: int
    ) -> bool:
        """card(I) > N/2 -- step 3 of ``Is_Distinguished``."""
        return 2 * len(current) > cardinality

    @staticmethod
    def _denied(
        max_version: int, current: frozenset[SiteId], cardinality: int
    ) -> QuorumDecision:
        return QuorumDecision(False, Rule.DENIED, max_version, current, cardinality)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} n={self.n_sites} sites={sorted(self._sites)}>"
