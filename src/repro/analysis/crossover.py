"""Crossover-point computation with the paper's proof discipline (Thm. 3).

The paper's mechanically-aided proof has four steps, all reproduced here:

1. solve the balance equations symbolically (Maple ``solve`` -> our
   :func:`repro.markov.availability_symbolic`);
2. locate the zero of the availability difference numerically (Maple
   ``fsolve`` -> scipy ``brentq``);
3. truncate the root to a fixed number of decimals and *verify the
   bracket exactly*: the difference, evaluated with exact rational
   arithmetic at the truncated value and at the truncated value plus one
   ulp, changes sign (Maple rational arithmetic -> our ``Fraction`` chain
   solves);
4. certify uniqueness of the positive root by Descartes' rule of signs on
   the difference numerator (we additionally run a Sturm count, which is
   exact and unconditional).

Step 3 takes about 70 ms at n = 20 (2-core x86_64 VM, CPython 3.11); step
4 requires the symbolic solve and is kept optional (it is exercised for
moderate *n* in the tests and available at any *n* for patient callers).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from scipy.optimize import brentq

from ..errors import AnalysisError
from ..markov import (
    availability,
    availability_exact,
    availability_grid,
    availability_symbolic,
)
from ..ratfunc import count_positive_roots

__all__ = [
    "CrossoverResult",
    "numeric_crossover",
    "certified_crossover",
    "uniqueness_certificate",
    "PAPER_CROSSOVERS",
]

#: Theorem 3's published crossover points: hybrid > dynamic-linear
#: iff mu/lambda >= c(n).
PAPER_CROSSOVERS: dict[int, float] = {
    3: 0.82, 4: 0.67, 5: 0.63, 6: 0.64, 7: 0.66, 8: 0.70, 9: 0.75,
    10: 0.81, 11: 0.86, 12: 0.92, 13: 0.97, 14: 1.01, 15: 1.05, 16: 1.08,
    17: 1.11, 18: 1.14, 19: 1.16, 20: 1.19,
}


@dataclass(frozen=True, slots=True)
class CrossoverResult:
    """A located and exactly-verified crossover point.

    ``low``/``high`` bracket the root: the availability difference
    (``first - second``) is exactly negative at ``low`` and exactly
    positive at ``high`` (so ``first`` overtakes ``second`` there).
    """

    first: str
    second: str
    n_sites: int
    low: Fraction
    high: Fraction
    verified: bool

    @property
    def value(self) -> float:
        """Midpoint of the verified bracket."""
        return float((self.low + self.high) / 2)

    def agrees_with_paper(self, tolerance: float = 0.011) -> bool:
        """True iff within ``tolerance`` of the published table entry.

        Only meaningful for the hybrid vs dynamic-linear comparison (the
        published Theorem 3 numbers are truncated to two decimals).
        """
        expected = PAPER_CROSSOVERS.get(self.n_sites)
        if expected is None:
            raise AnalysisError(f"paper has no crossover for n={self.n_sites}")
        return abs(self.value - expected) <= tolerance


def _difference(first: str, second: str, n: int):
    def diff(ratio: float) -> float:
        return availability(first, n, ratio) - availability(second, n, ratio)

    return diff


def numeric_crossover(
    first: str,
    second: str,
    n: int,
    low: float = 0.01,
    high: float = 50.0,
) -> float:
    """Floating-point crossover: the zero of the availability difference.

    Scans a geometric grid for a sign change (one batched grid solve per
    protocol rather than 201 per-point solves) and refines it with
    Brent's method.  Raises :class:`AnalysisError` when the difference
    never changes sign on ``[low, high]``.
    """
    diff = _difference(first, second, n)
    points = [low * (high / low) ** (i / 200) for i in range(201)]
    values = [
        a - b
        for a, b in zip(
            availability_grid(first, n, points),
            availability_grid(second, n, points),
        )
    ]
    for (p0, v0), (p1, v1) in zip(zip(points, values), zip(points[1:], values[1:])):
        # An exact zero means the grid point *is* the root; any
        # tolerance here would shadow the Brent refinement below.
        if v0 == 0.0:  # replint: disable=REP003
            return p0
        if (v0 < 0) != (v1 < 0):
            return float(brentq(diff, p0, p1, xtol=1e-12))
    raise AnalysisError(
        f"{first} and {second} do not cross on [{low}, {high}] at n={n}"
    )


def certified_crossover(
    first: str,
    second: str,
    n: int,
    decimals: int = 3,
) -> CrossoverResult:
    """Locate the crossover numerically, then verify the bracket exactly.

    Mirrors the paper: truncate the numeric root to ``decimals`` decimal
    places, evaluate the difference with exact rational arithmetic at the
    truncated value and one ulp above, and confirm the sign change.
    """
    root = numeric_crossover(first, second, n)
    step = Fraction(1, 10**decimals)
    low = Fraction(int(root * 10**decimals), 10**decimals)
    high = low + step
    sign_low = _exact_sign(first, second, n, low)
    sign_high = _exact_sign(first, second, n, high)
    # The truncation can land exactly on the root's decimal; widen once.
    if sign_low == 0:
        low -= step
        sign_low = _exact_sign(first, second, n, low)
    if sign_high == 0:
        high += step
        sign_high = _exact_sign(first, second, n, high)
    verified = sign_low < 0 < sign_high
    if not verified and sign_low > 0 > sign_high:
        raise AnalysisError(
            f"{first} crosses {second} downward at n={n}; "
            "swap the arguments for an upward crossover"
        )
    if not verified:
        # The numeric root may sit just outside the truncated bracket;
        # widen by one ulp on the flat side before giving up.
        for _ in range(3):
            if sign_low >= 0:
                low -= step
                sign_low = _exact_sign(first, second, n, low)
            if sign_high <= 0:
                high += step
                sign_high = _exact_sign(first, second, n, high)
            verified = sign_low < 0 < sign_high
            if verified:
                break
    if not verified:
        raise AnalysisError(
            f"could not exactly verify the crossover of {first}/{second} "
            f"at n={n} near {root}"
        )
    return CrossoverResult(first, second, n, low, high, verified)


def _exact_sign(first: str, second: str, n: int, ratio: Fraction) -> int:
    if ratio <= 0:
        return -1 if availability(first, n, 1e-6) < availability(second, n, 1e-6) else 1
    difference = availability_exact(first, n, ratio) - availability_exact(
        second, n, ratio
    )
    if difference > 0:
        return 1
    if difference < 0:
        return -1
    return 0


def uniqueness_certificate(first: str, second: str, n: int) -> dict:
    """Certify there is a *single* positive crossover, symbolically.

    Returns a report dict with the Descartes sign-change count of the
    difference numerator (the paper's argument: a count of one proves a
    unique positive zero) and the exact Sturm count of distinct positive
    roots.  Expensive for large *n* (full symbolic solve of both chains).
    """
    diff = availability_symbolic(first, n) - availability_symbolic(second, n)
    numerator = diff.numerator
    descartes = numerator.sign_changes()
    sturm = count_positive_roots(numerator)
    return {
        "first": first,
        "second": second,
        "n_sites": n,
        "numerator_degree": numerator.degree,
        "descartes_sign_changes": descartes,
        "positive_roots_sturm": sturm,
        "unique": sturm == 1,
    }
