"""Birth-death chains of the two static voting protocols.

Voting's chain is a birth-death process on the number of up sites; the
primary-site variant adds whether the primary is up.  Both have closed
binomial forms (:mod:`repro.markov.chains.voting`), and the derived
chains must reproduce these transcriptions state for state.
"""

from __future__ import annotations

from fractions import Fraction

from repro.errors import ChainError
from repro.markov import Arc, ChainSpec

__all__ = ["voting_chain", "primary_site_voting_chain"]


def voting_chain(n: int) -> ChainSpec:
    """Birth-death chain on the number of up sites, majority weighting."""
    if n < 1:
        raise ChainError(f"need at least one site, got {n}")
    states = [("U", k) for k in range(n + 1)]
    arcs: list[Arc] = []
    for k in range(1, n + 1):
        arcs.append(Arc(("U", k), ("U", k - 1), failures=k))
    for k in range(n):
        arcs.append(Arc(("U", k), ("U", k + 1), repairs=n - k))
    weights = {
        ("U", k): Fraction(k, n) for k in range(n + 1) if 2 * k > n
    }
    return ChainSpec(f"voting[n={n}]", states, arcs, weights)


def primary_site_voting_chain(n: int) -> ChainSpec:
    """Two-dimensional birth-death chain for voting with a primary site.

    States ``(k, p)``: *k* sites up, of which the primary is up iff
    ``p = 1``.  A state is available when *k* is a strict majority, or
    exactly half with the primary present.
    """
    if n < 2:
        raise ChainError(f"the primary-site chain needs n >= 2, got {n}")
    states = [
        (k, p)
        for p in (0, 1)
        for k in range(p, n + 1)
        if k - p <= n - 1
    ]
    arcs: list[Arc] = []
    for (k, p) in states:
        others_up = k - p
        others_down = (n - 1) - others_up
        if p == 1:
            arcs.append(Arc((k, 1), (k - 1, 0), failures=1))
        else:
            arcs.append(Arc((k, 0), (k + 1, 1), repairs=1))
        if others_up:
            arcs.append(Arc((k, p), (k - 1, p), failures=others_up))
        if others_down:
            arcs.append(Arc((k, p), (k + 1, p), repairs=others_down))
    weights = {
        (k, p): Fraction(k, n)
        for (k, p) in states
        if 2 * k > n or (2 * k == n and p == 1)
    }
    return ChainSpec(f"primary-site-voting[n={n}]", states, arcs, weights)
