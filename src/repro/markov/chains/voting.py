"""Static majority voting: closed-form availabilities.

Under the Section VI model each site is up with probability
``p = mu / (lambda + mu)`` independently, so voting's availability has a
closed binomial form (no chain needed).  Voting with a primary site
(majority plus primary tie-break on even *n*) gets its own closed form: a
tied partition is distinguished iff the primary is among its ``n/2``
members.  The chains :func:`repro.markov.chain_for` derives for both
protocols reproduce these values exactly, which the tests check.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ...errors import ChainError

__all__ = [
    "voting_availability",
    "primary_site_voting_availability",
    "primary_copy_availability",
    "voting_availability_float",
    "primary_site_voting_availability_float",
    "primary_copy_availability_float",
]


def _binomial_term(n: int, k: int, ratio: Fraction) -> Fraction:
    """P(exactly k of n sites up) at up-probability r/(1+r), exactly."""
    p = Fraction(ratio) / (1 + Fraction(ratio))
    q = 1 - p
    return math.comb(n, k) * p**k * q ** (n - k)


def voting_availability(n: int, ratio: Fraction) -> Fraction:
    """Exact site availability of simple majority voting.

    ``sum_{2k > n} (k/n) C(n,k) p^k q^(n-k)`` with ``p = r/(1+r)``.
    """
    if n < 1:
        raise ChainError(f"need at least one site, got {n}")
    total = Fraction(0)
    for k in range(n // 2 + 1, n + 1):
        total += Fraction(k, n) * _binomial_term(n, k, ratio)
    return total


def primary_site_voting_availability(n: int, ratio: Fraction) -> Fraction:
    """Exact site availability of majority voting with a primary tie-break.

    Adds, for even *n*, the tied patterns (exactly ``n/2`` up) that include
    the primary: ``C(n-1, n/2 - 1)`` of the ``C(n, n/2)`` patterns.
    """
    total = voting_availability(n, ratio)
    if n % 2 == 0:
        k = n // 2
        p = Fraction(ratio) / (1 + Fraction(ratio))
        q = 1 - p
        tied_with_primary = math.comb(n - 1, k - 1) * p**k * q ** (n - k)
        total += Fraction(k, n) * tied_with_primary
    return total


def primary_copy_availability(n: int, ratio: Fraction) -> Fraction:
    """Exact site availability of the primary-copy scheme.

    The update succeeds iff it arrives at an up site while the primary is
    up: ``p * (1 + (n-1) p) / n`` (the primary itself plus the expected
    number of other up sites, all inside the primary's partition under the
    infallible-links model).
    """
    if n < 1:
        raise ChainError(f"need at least one site, got {n}")
    p = Fraction(ratio) / (1 + Fraction(ratio))
    return p * (1 + (n - 1) * p) / n


# --------------------------------------------------------------------- #
# Float-native closed forms (the hot path of Section VI's curves)
# --------------------------------------------------------------------- #
# Same binomial sums as above with ordinary floats instead of Fractions:
# the unified availability() float API calls these, so a figure grid no
# longer pays a Fraction.limit_denominator round-trip per point.  Exact
# arithmetic stays available through the Fraction forms above (the
# paper's "computed exactly using rational arithmetic").


def voting_availability_float(n: int, ratio: float) -> float:
    """Float site availability of simple majority voting (Section VI-C)."""
    if n < 1:
        raise ChainError(f"need at least one site, got {n}")
    p = ratio / (1.0 + ratio)
    q = 1.0 - p
    total = 0.0
    for k in range(n // 2 + 1, n + 1):
        total += (k / n) * math.comb(n, k) * p**k * q ** (n - k)
    return total


def primary_site_voting_availability_float(n: int, ratio: float) -> float:
    """Float availability of majority voting with a primary tie-break."""
    total = voting_availability_float(n, ratio)
    if n % 2 == 0:
        k = n // 2
        p = ratio / (1.0 + ratio)
        q = 1.0 - p
        total += (k / n) * math.comb(n - 1, k - 1) * p**k * q ** (n - k)
    return total


def primary_copy_availability_float(n: int, ratio: float) -> float:
    """Float site availability of the primary-copy scheme (Section VI-C)."""
    if n < 1:
        raise ChainError(f"need at least one site, got {n}")
    p = ratio / (1.0 + ratio)
    return p * (1.0 + (n - 1) * p) / n
