"""Per-copy replica metadata: version number, cardinality, distinguished sites.

Section V-A of the paper associates three variables with each copy of the
replicated file:

* ``version`` (*VN*) -- counts the successful updates applied to the copy.
* ``cardinality`` (*SC*, "update sites cardinality") -- the number of sites
  that participated in the most recent update to this copy (with one hybrid
  exception: a two-site update in the static phase leaves *SC* at 3).
* ``distinguished`` (*DS*) -- either a single site (the greatest participant
  in the site ordering, meaningful when *SC* is even), or a list of exactly
  three sites (meaningful when *SC* = 3 under the hybrid algorithm), or
  empty when the protocol does not need a tie-breaker.

:class:`ReplicaMetadata` is immutable; protocols produce fresh instances on
commit.  This keeps the simulation substrate honest: shared references can
never leak mutations between sites.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from ..errors import MetadataInvariantError
from ..types import SiteId

__all__ = ["ReplicaMetadata", "current_sites", "partition_summary"]


@dataclass(frozen=True, slots=True)
class ReplicaMetadata:
    """Immutable (VN, SC, DS) triple attached to one copy of the file.

    ``distinguished`` is stored as a sorted tuple so that metadata instances
    compare (and hash) by value regardless of construction order.
    """

    version: int
    cardinality: int
    distinguished: tuple[SiteId, ...] = ()

    def __post_init__(self) -> None:
        if self.version < 0:
            raise MetadataInvariantError(
                f"version number must be nonnegative, got {self.version}"
            )
        if self.cardinality < 1:
            raise MetadataInvariantError(
                f"update sites cardinality must be positive, got {self.cardinality}"
            )
        ordered = tuple(sorted(self.distinguished))
        if len(set(ordered)) != len(ordered):
            raise MetadataInvariantError(
                f"distinguished sites list has duplicates: {self.distinguished!r}"
            )
        object.__setattr__(self, "distinguished", ordered)

    @property
    def distinguished_site(self) -> SiteId:
        """The single distinguished site (valid when DS holds one site)."""
        if len(self.distinguished) != 1:
            raise MetadataInvariantError(
                "distinguished_site is defined only when DS holds exactly one "
                f"site; DS = {self.distinguished!r}"
            )
        return self.distinguished[0]

    def bump_version(self) -> "ReplicaMetadata":
        """Metadata after an update that leaves SC and DS untouched.

        This is the hybrid algorithm's static phase: a two-of-three update
        increments only the version number (Do_Update, final clause).
        """
        return ReplicaMetadata(self.version + 1, self.cardinality, self.distinguished)

    def with_version(self, version: int) -> "ReplicaMetadata":
        """The same metadata pinned to an explicit version number.

        Used by the chain builders to canonicalise configurations (only
        *relative* versions matter under the model).
        """
        if version == self.version:
            return self
        return ReplicaMetadata(version, self.cardinality, self.distinguished)

    def describe(self) -> str:
        """Short human-readable rendering, e.g. ``VN=10 SC=3 DS=ABC``."""
        ds = "".join(self.distinguished) if self.distinguished else "-"
        return f"VN={self.version} SC={self.cardinality} DS={ds}"


def current_sites(
    copies: Mapping[SiteId, ReplicaMetadata], within: Iterable[SiteId] | None = None
) -> frozenset[SiteId]:
    """Sites holding the most recent version among ``within`` (default: all).

    This is the set *I* of the paper's ``Is_Distinguished`` routine, relative
    to a partition *P* given by ``within``.
    """
    if within is None:
        members = copies.keys()
    else:
        members = [s for s in within if s in copies]
    if not members:
        return frozenset()
    top = max(copies[s].version for s in members)
    return frozenset(s for s in members if copies[s].version == top)


def partition_summary(
    copies: Mapping[SiteId, ReplicaMetadata], partition: Iterable[SiteId]
) -> tuple[int, frozenset[SiteId], ReplicaMetadata]:
    """Return ``(M, I, meta)`` for a partition, per ``Is_Distinguished``.

    ``M`` is the largest version number in the partition, ``I`` the set of
    partition members holding it, and ``meta`` the (shared) metadata of those
    members.  Raises :class:`MetadataInvariantError` if the members of ``I``
    disagree on cardinality or distinguished sites -- a state the protocols
    can never produce (Theorem 1) -- or if the partition holds no copies.
    """
    members = [s for s in partition if s in copies]
    if not members:
        raise MetadataInvariantError(
            "partition contains no copy of the file; cannot summarise"
        )
    top = max(copies[s].version for s in members)
    holders = frozenset(s for s in members if copies[s].version == top)
    metas = {copies[s] for s in holders}
    if len(metas) != 1:
        raise MetadataInvariantError(
            "sites holding the current version disagree on metadata: "
            + ", ".join(f"{s}:{copies[s].describe()}" for s in sorted(holders))
        )
    return top, holders, next(iter(metas))
