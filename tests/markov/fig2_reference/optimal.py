"""The Markov chain of the footnote-6 "optimal candidate" algorithm.

The variant behaves like the modified hybrid except after a two-site
update, when *every other site* becomes a tie-breaking witness: a
cardinality-2 partition with a single current copy is distinguished iff it
holds more than half of all sites.

Reachable states:

* ``A_k = (k,k,0)`` for ``k = 2..n`` -- available (cardinality never drops
  below 2, since reviving through witnesses requires a global majority,
  which has at least two members for n >= 3);
* ``B_z = (1,2,z)`` for ``z = 0..z_max`` -- blocked only while
  ``1 + z <= n/2`` (one current copy plus *z* outsiders short of a global
  majority); ``z_max = floor((n - 2) / 2)``;
* ``C_z = (0,2,z)`` for ``z = 0..n-2`` -- both current copies down; no
  number of witnesses helps until one of the pair returns.
"""

from __future__ import annotations

from fractions import Fraction

from repro.errors import ChainError
from repro.markov import Arc, ChainSpec

__all__ = ["optimal_candidate_chain"]


def optimal_candidate_chain(n: int) -> ChainSpec:
    """Build the optimal-candidate chain for ``n`` replicas (n >= 3)."""
    if n < 3:
        raise ChainError(
            f"the optimal-candidate chain needs n >= 3 sites, got {n}"
        )
    z_max = (n - 2) // 2  # largest z with 1 + z <= n/2 (still blocked)
    states: list[tuple] = [("A", k) for k in range(2, n + 1)]
    states += [("B", z) for z in range(z_max + 1)]
    states += [("C", z) for z in range(n - 1)]

    arcs: list[Arc] = []
    for k in range(3, n + 1):
        arcs.append(Arc(("A", k), ("A", k - 1), failures=k))
    for k in range(2, n):
        arcs.append(Arc(("A", k), ("A", k + 1), repairs=n - k))
    arcs.append(Arc(("A", 2), ("B", 0), failures=2))

    for z in range(z_max + 1):
        # The down pair member returning restores both current copies.
        arcs.append(Arc(("B", z), ("A", z + 2), repairs=1))
        if z < n - 2:
            # An outsider returning either keeps us blocked (z+1 <= z_max)
            # or completes a global majority and commits at cardinality z+2.
            target = ("B", z + 1) if z + 1 <= z_max else ("A", z + 2)
            arcs.append(Arc(("B", z), target, repairs=n - 2 - z))
        if z > 0:
            arcs.append(Arc(("B", z), ("B", z - 1), failures=z))
        arcs.append(Arc(("B", z), ("C", z), failures=1))

    for z in range(n - 1):
        # One pair member returning gives one current copy among z + 1 up
        # sites: available immediately iff that is already a global
        # majority.
        if z <= z_max:
            arcs.append(Arc(("C", z), ("B", z), repairs=2))
        else:
            arcs.append(Arc(("C", z), ("A", z + 1), repairs=2))
        if z < n - 2:
            arcs.append(Arc(("C", z), ("C", z + 1), repairs=n - 2 - z))
        if z > 0:
            arcs.append(Arc(("C", z), ("C", z - 1), failures=z))

    weights = {("A", k): Fraction(k, n) for k in range(2, n + 1)}
    return ChainSpec(f"optimal-candidate[n={n}]", states, arcs, weights)
