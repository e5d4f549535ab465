"""Dynamic voting's Markov chain (the SIGMOD'87 analysis, [21]).

Reachable states under the frequent-update assumption (``3n - 3`` states):

* ``A_k = (k,k,0)`` for ``k = 2..n`` -- available: all *k* sites holding
  the current version are up and the cardinality equals *k*;
* ``B_z = (1,2,z)`` for ``z = 0..n-2`` -- blocked: cardinality bottomed out
  at 2, one of the pair up, *z* outsiders up (one of two is not a
  majority, and plain dynamic voting has no tie-breaker);
* ``C_z = (0,2,z)`` for ``z = 0..n-2`` -- blocked: both pair members down.

From a blocked state, only the repair of a *pair* member can restore a
quorum (both members must be present), which is precisely the availability
gap that dynamic-linear's distinguished site closes.
"""

from __future__ import annotations

from fractions import Fraction

from repro.errors import ChainError
from repro.markov import Arc, ChainSpec

__all__ = ["dynamic_chain"]


def dynamic_chain(n: int) -> ChainSpec:
    """Build the dynamic voting chain for ``n`` replicas (n >= 3)."""
    if n < 3:
        raise ChainError(f"the dynamic voting chain needs n >= 3 sites, got {n}")
    states: list[tuple] = [("A", k) for k in range(2, n + 1)]
    states += [("B", z) for z in range(n - 1)]
    states += [("C", z) for z in range(n - 1)]

    arcs: list[Arc] = []
    for k in range(3, n + 1):
        arcs.append(Arc(("A", k), ("A", k - 1), failures=k))
    for k in range(2, n):
        arcs.append(Arc(("A", k), ("A", k + 1), repairs=n - k))
    arcs.append(Arc(("A", 2), ("B", 0), failures=2))

    for z in range(n - 1):
        # Repairing the down pair member restores both current copies;
        # the update then installs cardinality z + 2.
        arcs.append(Arc(("B", z), ("A", z + 2), repairs=1))
        if z < n - 2:
            arcs.append(Arc(("B", z), ("B", z + 1), repairs=n - 2 - z))
        if z > 0:
            arcs.append(Arc(("B", z), ("B", z - 1), failures=z))
        arcs.append(Arc(("B", z), ("C", z), failures=1))

    for z in range(n - 1):
        arcs.append(Arc(("C", z), ("B", z), repairs=2))
        if z < n - 2:
            arcs.append(Arc(("C", z), ("C", z + 1), repairs=n - 2 - z))
        if z > 0:
            arcs.append(Arc(("C", z), ("C", z - 1), failures=z))

    weights = {("A", k): Fraction(k, n) for k in range(2, n + 1)}
    return ChainSpec(f"dynamic[n={n}]", states, arcs, weights)
