"""Lumping signatures: the paper's Fig. 2-style labels for derived chains.

Section VI's chains aggregate site-labelled states by the paper's
(X, Y, Z) coordinates.  That aggregation is only sound if the partition
is *strongly lumpable*: every state of a block must have the same total
transition rate into each other block.  :func:`lump_chain` performs the
aggregation and verifies strong lumpability **exactly** (rates here are
integer multiples of lambda and mu, so the check is integer equality, not
a numeric tolerance).

:func:`hybrid_signature` (and kin) map the builder's ``(up, current,
metadata)`` configurations to the paper's state labels, and
:func:`state_tuple` renders the hybrid's labels as Fig. 2's coordinates.
:data:`LUMP_SIGNATURES` names, per chain protocol, its smallest n and how
to build its signature; :func:`repro.markov.chain_for` derives every
chain through it.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction

from ..core.base import ReplicaControlProtocol
from ..core.metadata import ReplicaMetadata
from ..core.static_voting import PrimarySiteVotingProtocol
from ..errors import ChainError
from ..types import SiteId
from .builder import Configuration
from .ctmc import Arc, ChainSpec

__all__ = [
    "lump_chain",
    "hybrid_signature",
    "state_tuple",
    "dynamic_signature",
    "dynamic_linear_signature",
    "modified_hybrid_signature",
    "voting_signature",
    "primary_site_voting_signature",
    "class_signature",
    "Lumping",
    "LUMP_SIGNATURES",
]

#: Maps a derived configuration to the label of its block.
Signature = Callable[[Configuration], Hashable]


def lump_chain(
    spec: ChainSpec,
    signature: Callable[[Hashable], Hashable],
    name: str | None = None,
) -> ChainSpec:
    """Aggregate ``spec``'s states by ``signature``, verifying lumpability.

    Raises :class:`ChainError` if two states of one block disagree on the
    rate into any other block (the partition is not strongly lumpable) or
    on their availability weight.
    """
    blocks: dict[Hashable, list[Hashable]] = {}
    for state in spec.states:
        blocks.setdefault(signature(state), []).append(state)

    # Per-state aggregated rates into each block, off the chain's
    # outgoing-arc adjacency index: O(deg(state)) per state instead of
    # the old all-states spec.rate() probe, so the whole verification is
    # O(V + E) -- the difference between lumping n=7 and n=25 chains.
    def block_rates(state: Hashable) -> dict[Hashable, tuple[int, int]]:
        rates: dict[Hashable, list[int]] = {}
        own_block = signature(state)
        for target, failures, repairs in spec.transitions_from(state):
            target_block = signature(target)
            if target_block == own_block:
                continue  # internal moves vanish in the lumped chain
            entry = rates.setdefault(target_block, [0, 0])
            entry[0] += failures
            entry[1] += repairs
        return {k: (f, r) for k, (f, r) in rates.items()}

    lumped_arcs: list[Arc] = []
    weights: dict[Hashable, Fraction] = {}
    for label, members in blocks.items():
        reference = block_rates(members[0])
        reference_weight = spec.weight(members[0])
        for other in members[1:]:
            if block_rates(other) != reference:
                raise ChainError(
                    f"not strongly lumpable: states {members[0]!r} and "
                    f"{other!r} of block {label!r} disagree on outgoing "
                    "block rates"
                )
            if spec.weight(other) != reference_weight:
                raise ChainError(
                    f"states of block {label!r} disagree on availability "
                    "weight"
                )
        weights[label] = reference_weight
        for target_block, (failures, repairs) in reference.items():
            lumped_arcs.append(
                Arc(label, target_block, failures=failures, repairs=repairs)
            )
    return ChainSpec(
        name if name is not None else f"lumped:{spec.name}",
        tuple(blocks),
        lumped_arcs,
        weights,
    )


def _meta_of(config: Configuration) -> ReplicaMetadata:
    meta = config[2]
    if not isinstance(meta, ReplicaMetadata):
        raise ChainError(
            "this signature expects (VN, SC, DS) metadata configurations"
        )
    return meta


def hybrid_signature(config: Configuration) -> tuple:
    """Map a derived hybrid configuration to its Fig. 2 label.

    Static phase (SC = 3 with a trio list): ``("A", 2)`` when two trio
    members are up, ``("B", z)`` / ``("C", z)`` with one / zero.  Dynamic
    phase: ``("A", k)`` (all *k* current sites up, by the frequent-update
    normalisation).
    """
    up, current, _ = config
    meta = _meta_of(config)
    if meta.cardinality == 3 and len(meta.distinguished) == 3:
        trio = frozenset(meta.distinguished)
        trio_up = len(up & trio)
        outsiders = len(up - trio)
        if trio_up >= 2:
            # Available: either the post-update 3-of-3 state (A_3) or the
            # two-of-trio state (A_2); outsiders are absorbed on commit.
            return ("A", 3) if trio_up == 3 else ("A", 2)
        return ("B", outsiders) if trio_up == 1 else ("C", outsiders)
    if up == current:
        return ("A", len(up))
    # Blocked dynamic states do not arise for the hybrid (its blocked
    # states are all trio-phase); reaching here means the signature does
    # not fit the protocol.
    raise ChainError(f"unexpected hybrid configuration {config!r}")


def state_tuple(state: tuple, n: int) -> tuple[int, int, int]:
    """Render a :func:`hybrid_signature` block as Fig. 2's (X, Y, Z).

    *Y* is the update sites cardinality of the current copies, *X* how
    many of those *Y* sites are up, and *Z* how many of the other
    ``n - Y`` sites are up.  The labels alone fix all three, so ``n`` is
    not read.
    """
    match state:
        case ("A", 2):
            return (2, 3, 0)
        case ("A", int(k)):
            return (k, k, 0)
        case ("B", int(z)):
            return (1, 3, z)
        case ("C", int(z)):
            return (0, 3, z)
    raise ChainError(f"unknown hybrid state {state!r}")


def dynamic_signature(config: Configuration) -> tuple:
    """Map a derived dynamic-voting configuration to its chain label."""
    up, current, _ = config
    meta = _meta_of(config)
    if up == current:
        return ("A", len(up))
    current_up = len(up & current)
    outsiders = len(up - current)
    if meta.cardinality == 2 and current_up in (0, 1):
        return ("B" if current_up == 1 else "C", outsiders)
    raise ChainError(f"unexpected dynamic-voting configuration {config!r}")


def dynamic_linear_signature(config: Configuration) -> tuple:
    """Map a derived dynamic-linear configuration to its chain label."""
    up, current, _ = config
    meta = _meta_of(config)
    if up == current:
        return ("A", len(up))
    current_up = len(up & current)
    outsiders = len(up - current)
    if meta.cardinality == 2:
        return ("B" if current_up == 1 else "C", outsiders)
    if meta.cardinality == 1:
        return ("D", outsiders)
    raise ChainError(f"unexpected dynamic-linear configuration {config!r}")


def modified_hybrid_signature(config: Configuration) -> tuple:
    """Map a derived modified-hybrid configuration to a lumpable label.

    The modified hybrid's blocked states are pair-phase (SC = 2 with one
    distinguished site), not the hybrid's trio-phase, so
    :func:`hybrid_signature` does not apply.  Exchangeability leaves
    exactly the counts and the DS membership flags decision-relevant:
    available states are ``("A", k)``; blocked states collapse to
    ``("P", |up & cur|, |up - cur|, ds in up, ds in cur)``.
    """
    up, current, _ = config
    meta = _meta_of(config)
    if up == current:
        return ("A", len(up))
    ds = meta.distinguished[0] if meta.distinguished else None
    return (
        "P",
        len(up & current),
        len(up - current),
        ds in up,
        ds in current,
    )


def voting_signature(config: Configuration) -> tuple:
    """Map a derived voting configuration to the birth-death label."""
    up, _, _ = config
    return ("U", len(up))


class _PrimarySiteSignature:
    """``(|up|, primary in up)``; see :func:`primary_site_voting_signature`."""

    def __init__(self, primary: SiteId, sites: Iterable[SiteId]) -> None:
        self.primary = primary
        self.site_classes: dict[SiteId, Hashable] = {
            site: site == primary for site in sites
        }

    def __call__(self, config: Configuration) -> tuple[int, int]:
        up = config[0]
        return (len(up), int(self.primary in up))


def primary_site_voting_signature(protocol: ReplicaControlProtocol) -> Signature:
    """Map primary-site-voting configurations to ``(k, p)`` labels.

    *k* sites are up, of which the primary is up iff ``p = 1``: the states
    of a two-dimensional birth-death chain.  The primary belongs to the
    protocol instance, so the signature is built from it, and its
    ``site_classes`` map puts the primary in a role of its own
    (:func:`repro.markov.builder.derive_lumped_chain`).
    """
    if not isinstance(protocol, PrimarySiteVotingProtocol):
        raise ChainError(f"{protocol.name} has no primary site")
    return _PrimarySiteSignature(protocol.primary, protocol.sites)


class _ClassSignature:
    """Per-class ``(|up|, |cur|, |up & cur|)`` counts; see :func:`class_signature`."""

    def __init__(self, classes: Mapping[SiteId, Hashable]) -> None:
        self.site_classes: dict[SiteId, Hashable] = dict(classes)
        grouped: dict[Hashable, set[SiteId]] = {}
        for site, label in classes.items():
            grouped.setdefault(label, set()).add(site)
        self._ordered = tuple(
            (label, frozenset(members))
            for label, members in sorted(grouped.items(), key=lambda kv: str(kv[0]))
        )

    def __call__(self, config: Configuration) -> tuple:
        up, current, _ = config
        return tuple(
            (
                label,
                len(up & members),
                len(current & members),
                len(up & current & members),
            )
            for label, members in self._ordered
        )


def class_signature(
    classes: Mapping[SiteId, Hashable],
) -> Callable[[Configuration], tuple]:
    """Signature lumping sites by equivalence class (copies vs witnesses).

    ``classes`` maps every site to a class label.  Configurations
    collapse to, per class, ``(|up & class|, |cur & class|,
    |up & cur & class|)`` -- sound for protocols whose decisions depend
    only on per-class counts, e.g. :class:`WitnessVotingProtocol` under
    the unit-vote ledger policies (KeepVotes, GroupConsensus).  It is NOT
    sound for weight policies that break class symmetry (LinearBonus and
    TrioFreeze single out the greatest participant); for those
    :func:`lump_chain`'s exhaustive verification rejects the partition.

    The returned signature exposes the map as ``site_classes``, which
    :func:`repro.markov.builder.derive_lumped_chain` reads to keep sites
    of different classes in different roles.
    """
    return _ClassSignature(classes)


@dataclass(frozen=True)
class Lumping:
    """How :func:`repro.markov.chain_for` derives one protocol's chain."""

    #: The smallest n at which the protocol's chain is defined.
    min_sites: int
    #: Builds the strongly lumpable signature for one protocol instance.
    signature: Callable[[ReplicaControlProtocol], Signature]


#: The lumping of every chain protocol, by registry name.  The smallest n
#: is where the protocol first has a chain: dynamic voting needs a pair,
#: and the hybrids a static trio.  optimal-candidate shares the dynamic
#: coordinates: its decisions depend on the same (|up & cur|, |up - cur|,
#: SC) data, which the tests pin against the hand-built chains.
LUMP_SIGNATURES: dict[str, Lumping] = {
    "voting": Lumping(1, lambda protocol: voting_signature),
    "primary-site-voting": Lumping(1, primary_site_voting_signature),
    "dynamic": Lumping(2, lambda protocol: dynamic_signature),
    "dynamic-linear": Lumping(1, lambda protocol: dynamic_linear_signature),
    "hybrid": Lumping(3, lambda protocol: hybrid_signature),
    "modified-hybrid": Lumping(3, lambda protocol: modified_hybrid_signature),
    "optimal-candidate": Lumping(2, lambda protocol: dynamic_signature),
}
