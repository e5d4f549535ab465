"""Dynamic-linear's Markov chain (the VLDB'87 analysis, [22], [24]).

The distinguished site lets the cardinality shrink to one, so the state
space gains a fourth row (``4n - 2`` states):

* ``A_k = (k,k,0)`` for ``k = 1..n`` -- available;
* ``B_z = (1,2,z)`` for ``z = 0..n-2`` -- blocked: cardinality 2, the
  surviving pair member is *not* the distinguished site;
* ``C_z = (0,2,z)`` for ``z = 0..n-2`` -- blocked: both pair members down
  (repairing the distinguished one alone restores a quorum);
* ``D_z = (0,1,z)`` for ``z = 0..n-1`` -- blocked: the single current site
  is down.

The split leaving ``A_2`` is the protocol's signature: of the two failure
arcs (total rate ``2 lambda``), one -- the non-distinguished member failing
-- lands in ``A_1`` because the distinguished survivor holds exactly half
of the current copies *including* the distinguished site and so keeps
accepting updates alone; the other lands in the blocked row ``B``.
"""

from __future__ import annotations

from fractions import Fraction

from repro.errors import ChainError
from repro.markov import Arc, ChainSpec

__all__ = ["dynamic_linear_chain"]


def dynamic_linear_chain(n: int) -> ChainSpec:
    """Build the dynamic-linear chain for ``n`` replicas (n >= 3)."""
    if n < 3:
        raise ChainError(f"the dynamic-linear chain needs n >= 3 sites, got {n}")
    states: list[tuple] = [("A", k) for k in range(1, n + 1)]
    states += [("B", z) for z in range(n - 1)]
    states += [("C", z) for z in range(n - 1)]
    states += [("D", z) for z in range(n)]

    arcs: list[Arc] = []
    for k in range(3, n + 1):
        arcs.append(Arc(("A", k), ("A", k - 1), failures=k))
    for k in range(1, n):
        arcs.append(Arc(("A", k), ("A", k + 1), repairs=n - k))
    # A_2 splits on which pair member fails.
    arcs.append(Arc(("A", 2), ("A", 1), failures=1))  # non-DS fails
    arcs.append(Arc(("A", 2), ("B", 0), failures=1))  # DS fails
    arcs.append(Arc(("A", 1), ("D", 0), failures=1))

    for z in range(n - 1):
        # Repairing the distinguished member restores both current copies.
        arcs.append(Arc(("B", z), ("A", z + 2), repairs=1))
        if z < n - 2:
            arcs.append(Arc(("B", z), ("B", z + 1), repairs=n - 2 - z))
        if z > 0:
            arcs.append(Arc(("B", z), ("B", z - 1), failures=z))
        arcs.append(Arc(("B", z), ("C", z), failures=1))

    for z in range(n - 1):
        # Repairing the distinguished pair member alone restores a quorum
        # (half of the current copies including DS); the update installs
        # cardinality z + 1.
        arcs.append(Arc(("C", z), ("A", z + 1), repairs=1))
        arcs.append(Arc(("C", z), ("B", z), repairs=1))  # non-DS repaired
        if z < n - 2:
            arcs.append(Arc(("C", z), ("C", z + 1), repairs=n - 2 - z))
        if z > 0:
            arcs.append(Arc(("C", z), ("C", z - 1), failures=z))

    for z in range(n):
        # Only the single current site's repair restores a quorum.
        arcs.append(Arc(("D", z), ("A", z + 1), repairs=1))
        if z < n - 1:
            arcs.append(Arc(("D", z), ("D", z + 1), repairs=n - 1 - z))
        if z > 0:
            arcs.append(Arc(("D", z), ("D", z - 1), failures=z))

    weights = {("A", k): Fraction(k, n) for k in range(1, n + 1)}
    return ChainSpec(f"dynamic-linear[n={n}]", states, arcs, weights)
