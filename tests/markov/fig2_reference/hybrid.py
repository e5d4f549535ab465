"""The hybrid algorithm's Markov chain, transcribed from Fig. 2 of the paper.

States are labelled ``(X, Y, Z)``: the up-to-date copies have update sites
cardinality *Y*, *X* of those *Y* sites are up, and *Z* of the remaining
``n - Y`` sites are up.  The frequent-update assumption normalises every
state with a quorum, so the reachable states are exactly the paper's three
rows (``3n - 5`` states in total):

* top row (available): ``A_2 = (2,3,0)`` and ``A_k = (k,k,0)`` for
  ``k = 3..n``;
* middle row: ``B_z = (1,3,z)`` for ``z = 0..n-3`` -- one member of the
  static trio up, *z* outsiders up;
* bottom row: ``C_z = (0,3,z)`` for ``z = 0..n-3`` -- the whole trio down.

The module's arc list reproduces, for instance, the paper's worked balance
equation for the top-left state::

    2*mu*B[1] + 3*lambda*A[3] = ((n - 2)*mu + 2*lambda) * A[2]

(`B[1]` in the paper's 1-indexed naming is ``("B", 0)`` here).  The labels
are those of :func:`repro.markov.hybrid_signature`, so
:func:`repro.markov.state_tuple` renders either chain in (X, Y, Z).
"""

from __future__ import annotations

from fractions import Fraction

from repro.errors import ChainError
from repro.markov import Arc, ChainSpec

__all__ = ["hybrid_chain"]


def hybrid_chain(n: int) -> ChainSpec:
    """Build the hybrid algorithm's chain for ``n`` replicas (n >= 3)."""
    if n < 3:
        raise ChainError(f"the hybrid chain needs n >= 3 sites, got {n}")
    states: list[tuple] = [("A", k) for k in range(2, n + 1)]
    states += [("B", z) for z in range(n - 2)]
    states += [("C", z) for z in range(n - 2)]

    arcs: list[Arc] = []
    # Top row: the dynamic ladder, with A_2 as the static two-of-trio state.
    for k in range(3, n + 1):
        arcs.append(Arc(("A", k), ("A", k - 1), failures=k))
    for k in range(2, n):
        # From A_2 both kinds of repair (the third trio member or any other
        # site) yield a three-site distinguished partition, hence A_3.
        arcs.append(Arc(("A", k), ("A", k + 1), repairs=n - k))
    arcs.append(Arc(("A", 2), ("B", 0), failures=2))

    # Middle row: one trio member up, z outsiders up.
    for z in range(n - 2):
        # Repairing either down trio member restores a two-of-trio quorum;
        # with z outsiders present the update re-enters the dynamic phase
        # at cardinality z + 2.
        arcs.append(Arc(("B", z), ("A", z + 2), repairs=2))
        if z < n - 3:
            arcs.append(Arc(("B", z), ("B", z + 1), repairs=n - 3 - z))
        if z > 0:
            arcs.append(Arc(("B", z), ("B", z - 1), failures=z))
        arcs.append(Arc(("B", z), ("C", z), failures=1))

    # Bottom row: the whole trio down.
    for z in range(n - 2):
        arcs.append(Arc(("C", z), ("B", z), repairs=3))
        if z < n - 3:
            arcs.append(Arc(("C", z), ("C", z + 1), repairs=n - 3 - z))
        if z > 0:
            arcs.append(Arc(("C", z), ("C", z - 1), failures=z))

    weights = {("A", k): Fraction(k, n) for k in range(2, n + 1)}
    return ChainSpec(f"hybrid[n={n}]", states, arcs, weights)
