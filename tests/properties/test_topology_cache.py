"""Property: a topology's cached partitions follow every mutation.

``Topology.partitions()`` keeps its result until the next ``fail_site``,
``repair_site``, ``fail_link``, ``repair_link`` or ``set_partitions``.
Hypothesis drives random site and link sets through random mutation
sequences.  After every step the partitions are read, so the next
mutation always finds a cached result to drop, and they must equal those
of a fresh topology brought to the same up/down state.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Topology
from repro.types import site_names

MAX_SITES = 6


@st.composite
def networks(draw):
    """Sites, plus ``None`` (complete graph) or a subset of the site pairs."""
    sites = site_names(draw(st.integers(min_value=2, max_value=MAX_SITES)))
    pairs = list(itertools.combinations(sites, 2))
    links = draw(st.none() | st.lists(st.sampled_from(pairs), unique=True))
    return sites, links


#: ("site", i) and ("link", i) toggle the i-th site or link (modulo the
#: count); ("groups", labels) calls set_partitions with site k in group
#: labels[k], where a label past the last site leaves it out (down).
STEPS = st.lists(
    st.tuples(st.just("site"), st.integers(min_value=0, max_value=MAX_SITES - 1))
    | st.tuples(st.just("link"), st.integers(min_value=0, max_value=14))
    | st.tuples(
        st.just("groups"),
        st.lists(
            st.integers(min_value=0, max_value=MAX_SITES),
            min_size=MAX_SITES,
            max_size=MAX_SITES,
        ),
    ),
    max_size=30,
)


def mutate(topology, step):
    kind, value = step
    sites = sorted(topology.sites)
    if kind == "site":
        site = sites[value % len(sites)]
        if topology.is_up(site):
            topology.fail_site(site)
        else:
            topology.repair_site(site)
    elif kind == "link" and topology.links:
        a, b = sorted(topology.links)[value % len(topology.links)]
        if topology.link_is_up(a, b):
            topology.fail_link(a, b)
        else:
            topology.repair_link(a, b)
    elif kind == "groups":
        groups: dict[int, set] = {}
        for site, label in zip(sites, value):
            if label < len(sites):
                groups.setdefault(label, set()).add(site)
        topology.set_partitions(groups.values())


def fresh_copy(topology, sites, links):
    """A new topology with the same sites and links, failed to the same state."""
    fresh = Topology(sites, links)
    for site in sites:
        if not topology.is_up(site):
            fresh.fail_site(site)
    for a, b in sorted(topology.links):
        if not topology.link_is_up(a, b):
            fresh.fail_link(a, b)
    return fresh


@given(network=networks(), steps=STEPS)
@settings(max_examples=200, deadline=None)
def test_cached_partitions_follow_every_mutation(network, steps):
    sites, links = network
    topology = Topology(sites, links)
    topology.partitions()
    for step in steps:
        mutate(topology, step)
        fresh = fresh_copy(topology, sites, links)
        assert topology.partitions() == fresh.partitions()
        for site in sites:
            assert topology.partition_of(site) == fresh.partition_of(site)
