"""Reference lumped derivation: the oracle for ``derive_lumped_chain``.

This is the loop :func:`repro.markov.derive_lumped_chain` ran before it
learned to move one site per role: every representative tries all n site
failure/repair moves.  The role-grouped builder must reproduce its state
order, its arcs in insertion order (the order the generator matrix and
the exact solves sum them in) and its weights exactly.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from fractions import Fraction

from repro.core.base import ReplicaControlProtocol
from repro.markov.builder import (
    Configuration,
    _initial_configuration,
    _successor,
)
from repro.markov.ctmc import ChainSpec


def reference_lumped_chain(
    protocol: ReplicaControlProtocol,
    signature: Callable[[Configuration], Hashable],
) -> ChainSpec:
    """One representative per block, expanded by all n site moves."""
    initial = _initial_configuration(protocol)
    sites = sorted(protocol.sites)
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
        for site in sites:
            if site in up:
                successor = _successor(protocol, config, up - {site}, site)
                slot = 0
            else:
                successor = _successor(protocol, config, up | {site}, None)
                slot = 1
            target_label = signature(successor)
            if target_label == label:
                continue
            target = index.get(target_label)
            if target is None:
                target = len(order)
                index[target_label] = target
                order.append(target_label)
                representatives.append(successor)
            entry = outgoing.setdefault(target, [0, 0])
            entry[slot] += 1
        for target, (fails, repairs) in outgoing.items():
            arcs[(source, target)] = (fails, repairs)
    return ChainSpec.from_indexed_arcs(
        f"lumped:{protocol.name}[n={n}]", order, arcs, weights
    )


def chain_layout(chain: ChainSpec) -> tuple:
    """State order, arcs in insertion order, and weights of a chain."""
    return (
        chain.states,
        list(chain._arcs.items()),
        [chain.weight(state) for state in chain.states],
    )
