"""Automatic derivation of a protocol's Markov chain from its code.

The paper's chains (Fig. 2 and kin) encode the authors' reasoning about
how each protocol behaves under the stochastic model.  This module
removes the trust step: it *executes* the actual protocol implementation
against every reachable configuration of the Section VI model and
assembles the resulting Markov chain, either exactly
(:func:`derive_chain`) or lumped onto a signature's blocks
(:func:`derive_lumped_chain`, the chain every analysis uses).

A configuration is ``(up, current, metadata)`` -- which sites are up,
which sites hold the current version, and the metadata those copies share
(any hashable metadata type with a ``version`` and ``with_version``, so
vote-ledger protocols derive chains through the same machinery).  Under
the frequent-update assumption this is a complete state description:
stale copies can never influence a decision (a partition
whose freshest copy is stale is never distinguished -- the paper's Theorem
1 invariant, verified exhaustively by
:func:`verify_stale_partitions_blocked`), so their metadata is irrelevant.

Every site fails at rate lambda and is repaired at rate mu, so each
failure/repair of a specific site is an arc with multiplicity one; arcs
between the same configuration pair merge by summation.  The derived chain
is *site-labelled* (no symmetry lumping), hence exact; for the paper's
protocols it lumps exactly onto the hand-built chains the tests keep as
their oracle.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Mapping, Sequence
from fractions import Fraction

from ..core.base import ReplicaControlProtocol
from ..core.decision import UpdateContext
from ..core.metadata import ReplicaMetadata
from ..errors import ChainError
from ..obs.metrics import global_registry
from ..types import SiteId
from .ctmc import ChainSpec

__all__ = [
    "Configuration",
    "derive_chain",
    "derive_lumped_chain",
    "verify_stale_partitions_blocked",
]

#: A concrete model state: (up sites, current sites, shared metadata
#: normalised to version 1).
Configuration = tuple[frozenset[SiteId], frozenset[SiteId], object]

#: Stale copies only contribute their (lower) version to any decision, so
#: their metadata shape is irrelevant; version 0 against the current 1.
_STALE_VERSION = 0
_CURRENT_VERSION = 1


def _initial_configuration(protocol: ReplicaControlProtocol) -> Configuration:
    meta = protocol.initial_metadata().with_version(_CURRENT_VERSION)
    sites = frozenset(protocol.sites)
    return (sites, sites, meta)


def _copies_for(
    protocol: ReplicaControlProtocol, config: Configuration
) -> dict[SiteId, ReplicaMetadata]:
    up, current, meta = config
    stale_meta = protocol.stale_placeholder()
    return {
        site: (meta if site in current else stale_meta)
        for site in protocol.sites
    }


def _successor(
    protocol: ReplicaControlProtocol,
    config: Configuration,
    new_up: frozenset[SiteId],
    recent_failure: SiteId | None,
) -> Configuration:
    """Apply the frequent-update normalisation after an up-set change."""
    _, current, meta = config
    if not new_up or not (new_up & current):
        # No functioning site holds the current version: the freshest copy
        # in the partition is stale and the attempt is necessarily denied
        # (see verify_stale_partitions_blocked).
        return (new_up, current, meta)
    copies = _copies_for(protocol, (new_up, current, meta))
    outcome = protocol.attempt_update(
        new_up, copies, UpdateContext(recent_failure=recent_failure)
    )
    if not outcome.accepted:
        return (new_up, current, meta)
    assert outcome.metadata is not None
    return (new_up, new_up, outcome.metadata.with_version(_CURRENT_VERSION))


def _move(
    protocol: ReplicaControlProtocol, config: Configuration, site: SiteId
) -> Configuration:
    """The configuration after ``site`` fails (if up) or is repaired."""
    up = config[0]
    if site in up:
        return _successor(protocol, config, up - {site}, site)
    return _successor(protocol, config, up | {site}, None)


def _roles(
    sites: Sequence[SiteId],
    config: Configuration,
    classes: Mapping[SiteId, Hashable] | None,
) -> list[list[SiteId]]:
    """Group ``sites`` by role in ``config``, in order of each role's first site.

    A role is what a lumping signature can see of one site: up or down,
    current or stale, in the DS list or not (for :class:`ReplicaMetadata`),
    and the site's class label when the signature lumps by class.
    """
    up, current, meta = config
    distinguished = meta.distinguished if isinstance(meta, ReplicaMetadata) else ()
    roles: dict[tuple[bool, bool, bool, Hashable], list[SiteId]] = {}
    for site in sites:
        key = (
            site in up,
            site in current,
            site in distinguished,
            None if classes is None else classes[site],
        )
        roles.setdefault(key, []).append(site)
    return list(roles.values())


def _observe_build(kind: str, *, states: int, arcs: int, expansions: int) -> None:
    """Build telemetry: legacy ``markov.builder.*`` totals plus the
    per-path ``markov.build.<kind>.*`` series (docs/OBSERVABILITY.md)."""
    registry = global_registry()
    if not registry.enabled:
        return
    registry.counter("markov.builder.chains").inc()
    registry.counter("markov.builder.configurations").inc(states)
    registry.counter("markov.builder.arcs").inc(arcs)
    scope = registry.scope(f"markov.build.{kind}")
    scope.counter("chains").inc()
    scope.counter("states").inc(states)
    scope.counter("arcs").inc(arcs)
    scope.counter("expansions").inc(expansions)


def derive_chain(
    protocol: ReplicaControlProtocol, max_states: int = 50_000
) -> ChainSpec:
    """Breadth-first exploration of the model's reachable configurations.

    Returns an exact (site-labelled) :class:`ChainSpec` whose availability
    must agree with the protocol's lumped chain.  Arcs stream
    into an indexed ``(source, target) -> (failures, repairs)`` table as
    the frontier advances -- memory is O(states + distinct arcs), never a
    per-transition list (each expansion emits n transitions, so the old
    arc list dominated everything at large n).
    """
    initial = _initial_configuration(protocol)
    sites = sorted(protocol.sites)
    index: dict[Configuration, int] = {initial: 0}
    order: list[Configuration] = [initial]
    frontier: list[Configuration] = [initial]
    arcs: dict[tuple[int, int], list[int]] = {}
    expansions = 0
    while frontier:
        config = frontier.pop()
        source = index[config]
        up = config[0]
        expansions += 1
        for site in sites:
            successor = _move(protocol, config, site)
            slot = 0 if site in up else 1
            target = index.get(successor)
            if target is None:
                if len(index) >= max_states:
                    raise ChainError(
                        f"derived chain for {protocol.name} exceeds "
                        f"{max_states} states; raise max_states if intended"
                    )
                target = len(order)
                index[successor] = target
                order.append(successor)
                frontier.append(successor)
            entry = arcs.setdefault((source, target), [0, 0])
            entry[slot] += 1
    n = protocol.n_sites
    weights = {
        config: Fraction(len(config[0]), n)
        for config in order
        if config[0] and config[0] == config[1]
    }
    _observe_build(
        "site_labelled",
        states=len(order),
        arcs=len(arcs),
        expansions=expansions,
    )
    return ChainSpec.from_indexed_arcs(
        f"derived:{protocol.name}[n={n}]",
        order,
        {key: (f, r) for key, (f, r) in arcs.items()},
        weights,
    )


def derive_lumped_chain(
    protocol: ReplicaControlProtocol,
    signature: Callable[[Configuration], Hashable],
    *,
    max_blocks: int = 50_000,
    name: str | None = None,
) -> ChainSpec:
    """Derive the *lumped* chain directly, one representative per block.

    Explores a single representative configuration per ``signature``
    label; the representative's site failure/repair moves supply its
    block's aggregated outgoing rates.  That is sound exactly when the
    signature is strongly lumpable for the protocol -- every state of a
    block shares the same aggregated block rates, which is the property
    :func:`repro.markov.lumping.lump_chain` verifies exhaustively and the
    tests pin by comparing the two constructions at small n.

    Sites of one role (:func:`_roles`; a class signature's ``site_classes``
    map adds the class label) are exchangeable, so the first member's move
    stands for all of them, weighted by the role's size.  Roles are
    visited in order of their first site, so blocks, representatives and
    arcs appear in the same order as a loop over all n sites would give.
    The last member of every larger role is moved too, and a different
    target block raises :class:`ChainError`.

    The payoff is the pipeline's scaling law: O(blocks * roles) protocol
    calls, each over an n-site copy map, instead of the site-labelled 2^n
    explosion, which is what makes n=25-50 availability tractable
    (docs/PERFORMANCE.md).
    """
    initial = _initial_configuration(protocol)
    sites = sorted(protocol.sites)
    classes: Mapping[SiteId, Hashable] | None = getattr(signature, "site_classes", None)
    n = protocol.n_sites
    first = signature(initial)
    index: dict[Hashable, int] = {first: 0}
    order: list[Hashable] = [first]
    representatives: list[Configuration] = [initial]
    weights: dict[Hashable, Fraction] = {}
    arcs: dict[tuple[int, int], tuple[int, int]] = {}
    cursor = 0
    while cursor < len(representatives):
        config = representatives[cursor]
        label = order[cursor]
        source = cursor
        cursor += 1
        up, current, _ = config
        if up and up == current:
            weights[label] = Fraction(len(up), n)
        outgoing: dict[int, list[int]] = {}
        for members in _roles(sites, config, classes):
            site = members[0]
            successor = _move(protocol, config, site)
            target_label = signature(successor)
            if len(members) > 1:
                last = members[-1]
                if signature(_move(protocol, config, last)) != target_label:
                    raise ChainError(
                        f"sites {site} and {last} share a role in block "
                        f"{label!r} but move to different blocks"
                    )
            if target_label == label:
                continue  # internal moves vanish in the lumped chain
            target = index.get(target_label)
            if target is None:
                if len(index) >= max_blocks:
                    raise ChainError(
                        f"lumped chain for {protocol.name} exceeds "
                        f"{max_blocks} blocks; raise max_blocks if intended"
                    )
                target = len(order)
                index[target_label] = target
                order.append(target_label)
                representatives.append(successor)
            entry = outgoing.setdefault(target, [0, 0])
            entry[0 if site in up else 1] += len(members)
        for target, (fails, repairs) in outgoing.items():
            arcs[(source, target)] = (fails, repairs)
    _observe_build(
        "lumped", states=len(order), arcs=len(arcs), expansions=len(order)
    )
    return ChainSpec.from_indexed_arcs(
        name if name is not None else f"lumped:{protocol.name}[n={n}]",
        order,
        arcs,
        weights,
    )


def verify_stale_partitions_blocked(
    protocol: ReplicaControlProtocol,
    max_states: int = 50_000,
) -> None:
    """Check the Theorem 1 invariant the builder relies on, exhaustively.

    For every *accepted* transition reachable in the model -- an update
    from version M (current set ``cur1`` with metadata ``(card1, ds1)``)
    to version M+1 (committed by the new up set) -- the sites left behind
    at version M are ``L = cur1 - up2`` and they keep the version-M
    metadata.  The Theorem 1 argument demands that no future partition
    whose freshest copy is version M can be distinguished; such a
    partition is any ``S | T`` with nonempty ``S`` a subset of *L* (the
    version-M copies) and ``T`` a subset of the even-staler sites.  We
    enumerate all of them and assert denial.

    Raises ``AssertionError`` on a violation.
    """
    initial = _initial_configuration(protocol)
    seen: set[Configuration] = {initial}
    frontier: list[Configuration] = [initial]
    sites = sorted(protocol.sites)
    while frontier:
        config = frontier.pop()
        for site in sites:
            successor = _move(protocol, config, site)
            new_up = successor[0]
            accepted = successor[1] == new_up and bool(new_up)
            if accepted:
                _check_leftovers(protocol, config, successor)
            if successor not in seen:
                seen.add(successor)
                if len(seen) > max_states:
                    raise AssertionError("state space larger than max_states")
                frontier.append(successor)


def _check_leftovers(
    protocol: ReplicaControlProtocol,
    before: Configuration,
    after: Configuration,
) -> None:
    """No subset of the version-M leftovers (plus older sites) may win."""
    import itertools

    _, cur1, meta1 = before
    up2 = after[0]
    leftovers = cur1 - up2
    if not leftovers:
        return
    older = frozenset(protocol.sites) - up2 - leftovers
    version_m_meta = meta1.with_version(1)
    older_meta = protocol.stale_placeholder()
    copies = {site: version_m_meta for site in leftovers}
    copies.update({site: older_meta for site in older})
    for s_size in range(1, len(leftovers) + 1):
        for s_combo in itertools.combinations(sorted(leftovers), s_size):
            for t_size in range(len(older) + 1):
                for t_combo in itertools.combinations(sorted(older), t_size):
                    partition = frozenset(s_combo) | frozenset(t_combo)
                    decision = protocol.is_distinguished(partition, copies)
                    assert not decision.granted, (
                        f"{protocol.name}: partition {sorted(partition)} of "
                        f"version-M leftovers {s_combo} plus stale {t_combo} "
                        f"granted after the update {before} -> {after}"
                    )
