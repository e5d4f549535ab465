"""Version-stamped vote ledgers (Barbara, Garcia-Molina & Spauster).

Dynamic vote reassignment attaches to each copy a *vote ledger*: the
version number of the copy plus the vote assignment installed by the most
recent update.  A partition consults the newest ledger among its members
-- stale members' ledgers are superseded, but stale *sites* may still hold
votes under the newest assignment, which is exactly how the hybrid
algorithm lets the absent third trio member "retain its vote"
(Section VII).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from ..errors import MetadataInvariantError
from ..types import SiteId

__all__ = ["VoteLedger"]


@dataclass(frozen=True, slots=True)
class VoteLedger:
    """Immutable (version, vote assignment) pair attached to one copy.

    ``votes`` stores only the sites with positive votes, sorted, so value
    equality and hashing behave like the assignment itself.
    """

    version: int
    votes: tuple[tuple[SiteId, int], ...]

    def __post_init__(self) -> None:
        if self.version < 0:
            raise MetadataInvariantError(
                f"version number must be nonnegative, got {self.version}"
            )
        cleaned = tuple(sorted((s, v) for s, v in self.votes if v))
        sites = [s for s, _ in cleaned]
        if len(set(sites)) != len(sites):
            raise MetadataInvariantError(f"duplicate voters in {self.votes!r}")
        if any(v < 0 for _, v in cleaned):
            raise MetadataInvariantError(f"negative votes in {self.votes!r}")
        if not cleaned:
            raise MetadataInvariantError("a vote ledger needs a positive vote")
        object.__setattr__(self, "votes", cleaned)

    @classmethod
    def from_assignment(
        cls, version: int, assignment: Mapping[SiteId, int]
    ) -> "VoteLedger":
        """Build from a votes mapping (zero-vote sites dropped)."""
        return cls(version, tuple(assignment.items()))

    @property
    def total(self) -> int:
        """Sum of all votes in the assignment."""
        return sum(v for _, v in self.votes)

    @property
    def voters(self) -> frozenset[SiteId]:
        """Sites holding at least one vote."""
        return frozenset(s for s, _ in self.votes)

    def votes_of(self, site: SiteId) -> int:
        """Votes held by ``site`` (0 if absent)."""
        for s, v in self.votes:
            if s == site:
                return v
        return 0

    def held_by(self, partition: Iterable[SiteId]) -> int:
        """Votes held by the members of a partition."""
        members = set(partition)
        return sum(v for s, v in self.votes if s in members)

    def assignment(self) -> dict[SiteId, int]:
        """The assignment as a plain dict."""
        return dict(self.votes)

    def with_version(self, version: int) -> "VoteLedger":
        """The same assignment pinned to an explicit version number."""
        if version == self.version:
            return self
        return VoteLedger(version, self.votes)

    def describe(self) -> str:
        """Compact rendering, e.g. ``VN=4 votes={A:1,B:2}``."""
        body = ",".join(f"{s}:{v}" for s, v in self.votes)
        return f"VN={self.version} votes={{{body}}}"
