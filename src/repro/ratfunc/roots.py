"""Exact real-root machinery: Descartes' rule, Sturm sequences, bisection.

The paper's Theorem 3 proof needs three root-finding services, all exact:

* **Descartes' rule of signs** (via
  :meth:`~repro.ratfunc.polynomial.Polynomial.sign_changes`): one sign
  change in the coefficient sequence certifies a *unique* positive root.
* **Sturm sequences**: exact counts of distinct real roots in an interval,
  used both to double-check Descartes and to drive certified bisection.
* **Exact bisection**: shrink a bracketing interval with rational endpoint
  arithmetic until it is narrower than a tolerance; every sign evaluated
  is exact, so the final bracket is a proof.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from ..errors import AlgebraError
from .polynomial import Polynomial

__all__ = [
    "cauchy_bound",
    "sturm_sequence",
    "sign_variations",
    "count_roots_between",
    "count_positive_roots",
    "isolate_positive_roots",
    "bisect_root",
]


def cauchy_bound(poly: Polynomial) -> Fraction:
    """An upper bound on the absolute value of every real root.

    Cauchy's bound: ``1 + max_i |a_i / a_n|`` over the non-leading
    coefficients.
    """
    if poly.degree < 1:
        raise AlgebraError("root bounds need degree >= 1")
    lead = abs(poly.leading_coefficient)
    worst = max(
        (abs(c) / lead for c in poly.coefficients[:-1]), default=Fraction(0)
    )
    return 1 + worst


def sturm_sequence(poly: Polynomial) -> list[Polynomial]:
    """The Sturm sequence of ``poly`` (square-free part is taken first).

    Dividing by ``gcd(p, p')`` removes repeated roots, so the sequence
    counts *distinct* real roots -- which is what crossover uniqueness
    needs.
    """
    if poly.is_zero():
        raise AlgebraError("the zero polynomial has no Sturm sequence")
    derivative = poly.derivative()
    if derivative.is_zero():
        return [poly]
    common = poly.gcd(derivative)
    square_free = poly.exact_div(common) if common.degree > 0 else poly
    sequence = [square_free, square_free.derivative()]
    while not sequence[-1].is_zero():
        remainder = sequence[-2] % sequence[-1]
        if remainder.is_zero():
            break
        sequence.append(-remainder)
    return sequence


def sign_variations(sequence: Sequence[Polynomial], point: Fraction) -> int:
    """Sign variations of a polynomial sequence evaluated at ``point``."""
    signs = []
    for poly in sequence:
        value = poly(Fraction(point))
        if value != 0:
            signs.append(1 if value > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_between(
    poly: Polynomial, low: Fraction, high: Fraction
) -> int:
    """Distinct real roots of ``poly`` in the half-open interval (low, high].

    Sturm's theorem; endpoints must be rational.  Raises if low >= high.
    """
    low, high = Fraction(low), Fraction(high)
    if low >= high:
        raise AlgebraError(f"empty interval ({low}, {high}]")
    sequence = sturm_sequence(poly)
    return sign_variations(sequence, low) - sign_variations(sequence, high)


def count_positive_roots(poly: Polynomial) -> int:
    """Distinct real roots in (0, infinity), exactly."""
    if poly.degree < 1:
        return 0
    bound = cauchy_bound(poly)
    return count_roots_between(poly, Fraction(0), bound)


def isolate_positive_roots(
    poly: Polynomial, max_intervals: int = 64
) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals, each containing exactly one positive root.

    Recursive Sturm bisection over (0, Cauchy bound].  ``max_intervals``
    guards against degenerate inputs.
    """
    if poly.degree < 1:
        return []
    sequence = sturm_sequence(poly)
    bound = cauchy_bound(poly)

    def variations(point: Fraction) -> int:
        return sign_variations(sequence, point)

    intervals: list[tuple[Fraction, Fraction]] = []
    stack = [(Fraction(0), bound, variations(Fraction(0)), variations(bound))]
    while stack:
        low, high, v_low, v_high = stack.pop()
        roots_here = v_low - v_high
        if roots_here == 0:
            continue
        if roots_here == 1:
            intervals.append((low, high))
            if len(intervals) > max_intervals:
                raise AlgebraError("too many root intervals; input degenerate?")
            continue
        mid = (low + high) / 2
        v_mid = variations(mid)
        stack.append((low, mid, v_low, v_mid))
        stack.append((mid, high, v_mid, v_high))
    return sorted(intervals)


def bisect_root(
    poly: Polynomial,
    low: Fraction,
    high: Fraction,
    tolerance: Fraction = Fraction(1, 10_000),
) -> tuple[Fraction, Fraction]:
    """Shrink a sign-changing bracket below ``tolerance``, exactly.

    Requires ``poly(low)`` and ``poly(high)`` to have opposite (nonzero)
    signs; every midpoint evaluation is exact rational arithmetic, so the
    returned bracket certifies the root's location.  If an endpoint
    evaluates to exactly zero, the zero point is returned as a degenerate
    bracket.
    """
    low, high = Fraction(low), Fraction(high)
    value_low = poly(low)
    value_high = poly(high)
    if value_low == 0:
        return (low, low)
    if value_high == 0:
        return (high, high)
    if (value_low > 0) == (value_high > 0):
        raise AlgebraError(
            f"no sign change on [{low}, {high}]: "
            f"p(low) and p(high) share a sign"
        )
    sign_low = value_low > 0
    while high - low > tolerance:
        mid = (low + high) / 2
        value_mid = poly(mid)
        if value_mid == 0:
            return (mid, mid)
        if (value_mid > 0) == sign_low:
            low = mid
        else:
            high = mid
    return (low, high)
