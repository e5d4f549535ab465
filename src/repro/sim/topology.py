"""Network topology with failing sites and links; partition computation.

The paper's protocols tolerate both site and communication-link failures
(its *model* considers only site failures, to keep the Markov chain small,
but the algorithms and our simulators handle both).  A topology tracks
which sites and links are up and answers the central question: what are the
current *partitions* -- the connected components of the surviving graph.

Links are undirected; by default the topology is a complete graph (any two
up sites can talk, matching the model's first assumption), but arbitrary
graphs and explicit link failures are supported for scenario replay.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from ..errors import SimulationError
from ..types import Partition, SiteId, validate_sites

__all__ = ["Topology"]


def _edge(a: SiteId, b: SiteId) -> tuple[SiteId, SiteId]:
    return (a, b) if a <= b else (b, a)


class Topology:
    """Sites and undirected links, each independently up or down.

    Parameters
    ----------
    sites:
        All sites in the network.
    links:
        The physical links as site pairs.  ``None`` (default) means a
        complete graph.
    """

    def __init__(
        self,
        sites: Sequence[SiteId],
        links: Iterable[tuple[SiteId, SiteId]] | None = None,
    ) -> None:
        self._sites = frozenset(validate_sites(sites))
        if links is None:
            pairs = itertools.combinations(sorted(self._sites), 2)
        else:
            pairs = links
        edges = set()
        for a, b in pairs:
            if a == b:
                raise SimulationError(f"self-link at {a!r}")
            if a not in self._sites or b not in self._sites:
                raise SimulationError(f"link {a!r}-{b!r} mentions unknown sites")
            edges.add(_edge(a, b))
        self._links = frozenset(edges)
        self._site_up: dict[SiteId, bool] = dict.fromkeys(self._sites, True)
        self._link_up: dict[tuple[SiteId, SiteId], bool] = dict.fromkeys(
            self._links, True
        )
        # partitions() result, kept until the next mutation.
        self._partitions: tuple[Partition, ...] | None = None

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #

    @property
    def sites(self) -> frozenset[SiteId]:
        """All sites."""
        return self._sites

    @property
    def links(self) -> frozenset[tuple[SiteId, SiteId]]:
        """All physical links (canonically ordered pairs)."""
        return self._links

    def is_up(self, site: SiteId) -> bool:
        """True iff the site is functioning."""
        self._check_site(site)
        return self._site_up[site]

    def up_sites(self) -> frozenset[SiteId]:
        """All functioning sites."""
        return frozenset(s for s, up in self._site_up.items() if up)

    def link_is_up(self, a: SiteId, b: SiteId) -> bool:
        """True iff the physical link exists and is functioning."""
        return self._link_up.get(_edge(a, b), False)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def fail_site(self, site: SiteId) -> None:
        """Take a site down (idempotent errors are real errors here)."""
        self._check_site(site)
        if not self._site_up[site]:
            raise SimulationError(f"site {site!r} is already down")
        self._site_up[site] = False
        self._partitions = None

    def repair_site(self, site: SiteId) -> None:
        """Bring a site back up."""
        self._check_site(site)
        if self._site_up[site]:
            raise SimulationError(f"site {site!r} is already up")
        self._site_up[site] = True
        self._partitions = None

    def fail_link(self, a: SiteId, b: SiteId) -> None:
        """Take a link down."""
        edge = self._check_link(a, b)
        if not self._link_up[edge]:
            raise SimulationError(f"link {a!r}-{b!r} is already down")
        self._link_up[edge] = False
        self._partitions = None

    def repair_link(self, a: SiteId, b: SiteId) -> None:
        """Bring a link back up."""
        edge = self._check_link(a, b)
        if self._link_up[edge]:
            raise SimulationError(f"link {a!r}-{b!r} is already up")
        self._link_up[edge] = True
        self._partitions = None

    def set_partitions(self, groups: Iterable[Iterable[SiteId]]) -> None:
        """Force the live graph into the given disjoint groups.

        Scenario replay helper: every link inside a group comes up, every
        link between groups goes down, and sites in no group are failed.
        Only usable on complete-graph topologies (scenario scripts assume
        any two co-partitioned sites can talk).
        """
        group_sets = [frozenset(g) for g in groups]
        assigned: set[SiteId] = set()
        for group in group_sets:
            if group & assigned:
                raise SimulationError("scenario groups must be disjoint")
            assigned |= group
        if not assigned <= self._sites:
            raise SimulationError(
                f"scenario mentions unknown sites {sorted(assigned - self._sites)}"
            )
        membership = {}
        for index, group in enumerate(group_sets):
            for site in group:
                membership[site] = index
        for site in self._sites:
            self._site_up[site] = site in assigned
        for edge in self._links:
            a, b = edge
            same_group = (
                a in membership and b in membership and membership[a] == membership[b]
            )
            self._link_up[edge] = same_group
        self._partitions = None

    # ------------------------------------------------------------------ #
    # Partitions
    # ------------------------------------------------------------------ #

    def partitions(self) -> tuple[Partition, ...]:
        """Connected components of up sites over up links, largest first.

        Computed once per topology change: every mutator drops the cached
        result.
        """
        if self._partitions is not None:
            return self._partitions
        up = self.up_sites()
        seen: set[SiteId] = set()
        components: list[frozenset[SiteId]] = []
        adjacency: dict[SiteId, list[SiteId]] = {s: [] for s in up}
        for (a, b), link_up in self._link_up.items():
            if link_up and a in up and b in up:
                adjacency[a].append(b)
                adjacency[b].append(a)
        for start in sorted(up):
            if start in seen:
                continue
            frontier = [start]
            component = {start}
            seen.add(start)
            while frontier:
                node = frontier.pop()
                for neighbour in adjacency[node]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        component.add(neighbour)
                        frontier.append(neighbour)
            components.append(frozenset(component))
        self._partitions = tuple(sorted(components, key=lambda c: (-len(c), sorted(c))))
        return self._partitions

    def partition_of(self, site: SiteId) -> Partition | None:
        """The partition containing ``site``, or None if the site is down."""
        self._check_site(site)
        if not self._site_up[site]:
            return None
        for component in self.partitions():
            if site in component:
                return component
        raise AssertionError("up site missing from its own partition")

    # ------------------------------------------------------------------ #
    # Internal checks
    # ------------------------------------------------------------------ #

    def _check_site(self, site: SiteId) -> None:
        if site not in self._sites:
            raise SimulationError(f"unknown site {site!r}")

    def _check_link(self, a: SiteId, b: SiteId) -> tuple[SiteId, SiteId]:
        edge = _edge(a, b)
        if edge not in self._links:
            raise SimulationError(f"unknown link {a!r}-{b!r}")
        return edge
