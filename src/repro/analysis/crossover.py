"""Crossover-point computation with the paper's proof discipline (Thm. 3).

The paper's mechanically-aided proof has four steps, all reproduced here:

1. solve the balance equations symbolically (Maple ``solve`` -> our
   :func:`repro.markov.availability_symbolic`);
2. locate the zero of the availability difference numerically (Maple
   ``fsolve`` -> :func:`brentq`, a port of scipy's Brent iteration);
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

import math
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction

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
    "brentq",
    "scan_crossover",
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


#: scipy.optimize.brentq's relative tolerance and iteration cap, which
#: :func:`brentq` keeps so that it returns the same float as scipy.
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAXITER = 100


# brentq ports scipy/optimize/Zeros/brentq.c, which carries this notice:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
def brentq(
    f: Callable[[float], float], a: float, b: float, *, xtol: float = 2e-12
) -> float:
    """A root of ``f`` in ``[a, b]`` by Brent's method.

    A line-for-line port of scipy's C ``brentq`` (scipy.optimize), with
    its defaults, so it returns the same float for the same ``f`` and
    ``xtol``: each step interpolates (secant or inverse quadratic) when
    that shrinks the bracket fast enough and bisects otherwise, until the
    bracket is within ``xtol + 4 eps |x|``.  Raises :class:`AnalysisError`
    when ``f(a)`` and ``f(b)`` have the same sign, when ``f`` returns NaN,
    and when 100 steps do not converge.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise AnalysisError(f"the function value at x={x} is NaN")
        return fx

    def negative(x: float) -> bool:
        return math.copysign(1.0, x) < 0

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    # An exact zero at an end of the bracket is the root.
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if negative(fpre) == negative(fcur):
        raise AnalysisError(f"f({a}) and f({b}) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and negative(fpre) != negative(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre
            fpre = fcur
            fcur = fblk
            fblk = fpre
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (
                    -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                )
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis
        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise AnalysisError(
        f"Brent's method did not converge in {_BRENT_MAXITER} iterations; "
        f"last x={xcur}"
    )


def scan_crossover(
    measure: Callable[[str, int, float], float],
    measure_grid: Callable[[str, int, Sequence[float]], Sequence[float]],
    first: str,
    second: str,
    n: int,
    low: float,
    high: float,
    xtol: float,
) -> float | None:
    """The first zero of ``measure(first) - measure(second)`` on ``[low, high]``.

    Scans a 201-point geometric grid for a sign change (one batched grid
    solve per protocol through ``measure_grid``, rather than 201 per-point
    solves) and refines the first one with :func:`brentq` on ``measure``.
    Returns ``None`` when the difference never changes sign.
    """
    points = [low * (high / low) ** (i / 200) for i in range(201)]
    values = [
        a - b
        for a, b in zip(measure_grid(first, n, points), measure_grid(second, n, points))
    ]
    for (p0, v0), (p1, v1) in zip(zip(points, values), zip(points[1:], values[1:])):
        # An exact zero means the grid point *is* the root; any
        # tolerance here would shadow the Brent refinement below.
        if v0 == 0.0:  # replint: disable=REP003
            return p0
        if (v0 < 0) != (v1 < 0):
            return brentq(
                lambda ratio: measure(first, n, ratio) - measure(second, n, ratio),
                p0,
                p1,
                xtol=xtol,
            )
    return None


def numeric_crossover(
    first: str,
    second: str,
    n: int,
    low: float = 0.01,
    high: float = 50.0,
) -> float:
    """Floating-point crossover: the zero of the availability difference.

    The site-measure :func:`scan_crossover`.  Raises
    :class:`AnalysisError` when the difference never changes sign on
    ``[low, high]``.
    """
    root = scan_crossover(
        availability, availability_grid, first, second, n, low, high, xtol=1e-12
    )
    if root is None:
        raise AnalysisError(
            f"{first} and {second} do not cross on [{low}, {high}] at n={n}"
        )
    return root


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
