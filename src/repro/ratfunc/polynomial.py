"""Exact univariate polynomials over the rationals.

This module (with :mod:`repro.ratfunc.rational` and
:mod:`repro.ratfunc.roots`) replaces the Maple symbolic manipulator that
the paper uses in its mechanically-aided proof of Theorem 3.  Coefficients
are :class:`fractions.Fraction`, so every operation is exact; the paper's
"no roundoff error" guarantee carries over.

Polynomials are immutable; coefficients are stored in ascending order with
trailing zeros stripped (the zero polynomial has an empty tuple and degree
-1 by convention).
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from numbers import Rational

from ..errors import AlgebraError

__all__ = ["Polynomial", "X", "ZERO", "ONE"]

_Scalar = int | Fraction


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Rational):
        return Fraction(value)
    raise AlgebraError(
        f"polynomial coefficients must be rational, got {type(value).__name__}"
    )


class Polynomial:
    """An exact polynomial in one variable over the rationals."""

    __slots__ = ("_coefficients",)

    def __init__(self, coefficients: Iterable = ()) -> None:
        coeffs = [_as_fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coefficients = tuple(coeffs)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def constant(cls, value) -> "Polynomial":
        """The constant polynomial ``value``."""
        return cls([_as_fraction(value)])

    @classmethod
    def monomial(cls, degree: int, coefficient=1) -> "Polynomial":
        """``coefficient * x**degree``."""
        if degree < 0:
            raise AlgebraError(f"monomial degree must be nonnegative: {degree}")
        return cls([0] * degree + [coefficient])

    @classmethod
    def linear(cls, constant, slope) -> "Polynomial":
        """``constant + slope * x`` -- the shape of every CTMC rate here."""
        return cls([constant, slope])

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """Coefficients in ascending order (empty for the zero polynomial)."""
        return self._coefficients

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._coefficients) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        """Coefficient of the highest-degree term (0 for zero)."""
        return self._coefficients[-1] if self._coefficients else Fraction(0)

    def is_zero(self) -> bool:
        """True iff this is the zero polynomial."""
        return not self._coefficients

    def __bool__(self) -> bool:
        return bool(self._coefficients)

    def __getitem__(self, power: int) -> Fraction:
        if 0 <= power < len(self._coefficients):
            return self._coefficients[power]
        return Fraction(0)

    # ------------------------------------------------------------------ #
    # Ring operations
    # ------------------------------------------------------------------ #

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        try:
            return Polynomial.constant(other)
        except AlgebraError:
            return None

    def __add__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        size = max(len(self._coefficients), len(rhs._coefficients))
        return Polynomial(
            self[i] + rhs[i] for i in range(size)
        )

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self._coefficients)

    def __sub__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self.is_zero() or rhs.is_zero():
            return ZERO
        result = [Fraction(0)] * (len(self._coefficients) + len(rhs._coefficients) - 1)
        for i, a in enumerate(self._coefficients):
            if a == 0:
                continue
            for j, b in enumerate(rhs._coefficients):
                result[i + j] += a * b
        return Polynomial(result)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise AlgebraError("negative polynomial powers need rational functions")
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, divisor: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if not isinstance(divisor, Polynomial):
            divisor = Polynomial.constant(divisor)
        if divisor.is_zero():
            raise AlgebraError("polynomial division by zero")
        remainder = list(self._coefficients)
        quotient = [Fraction(0)] * max(0, len(remainder) - divisor.degree)
        lead = divisor.leading_coefficient
        d = divisor.degree
        while len(remainder) - 1 >= d and any(remainder):
            shift = len(remainder) - 1 - d
            factor = remainder[-1] / lead
            if factor != 0:
                quotient[shift] = factor
                for i, c in enumerate(divisor.coefficients):
                    remainder[shift + i] -= factor * c
            remainder.pop()
        return Polynomial(quotient), Polynomial(remainder)

    def __floordiv__(self, divisor) -> "Polynomial":
        quotient, _ = divmod(self, divisor)
        return quotient

    def __mod__(self, divisor) -> "Polynomial":
        _, remainder = divmod(self, divisor)
        return remainder

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Division known to be exact; raises if a remainder appears.

        Used by the fraction-free (Bareiss) elimination, where divisions are
        exact by construction -- a nonzero remainder signals a logic error.
        """
        quotient, remainder = divmod(self, divisor)
        if not remainder.is_zero():
            raise AlgebraError("exact_div had a nonzero remainder")
        return quotient

    # ------------------------------------------------------------------ #
    # Analysis helpers
    # ------------------------------------------------------------------ #

    def __call__(self, point):
        """Evaluate by Horner's rule; exact for Fraction/int points."""
        result = point * 0  # zero of the caller's arithmetic type
        for coefficient in reversed(self._coefficients):
            result = result * point + coefficient
        return result

    def evaluate_grid(self, points: Iterable[float]) -> list[float]:
        """Float Horner evaluation at many points (the perf fast path).

        Converts the exact coefficients to floats *once* and runs plain
        float Horner per point -- orders of magnitude cheaper than
        :meth:`__call__`'s Fraction arithmetic across a figure grid, at
        ordinary floating-point accuracy.  Exactness (the paper's "no
        roundoff error" guarantee) is deliberately not claimed here; use
        :meth:`__call__` with Fraction points for that.
        """
        coefficients = [float(c) for c in reversed(self._coefficients)]
        values = []
        for point in points:
            x = float(point)
            result = 0.0
            for coefficient in coefficients:
                result = result * x + coefficient
            values.append(result)
        return values

    def derivative(self) -> "Polynomial":
        """The formal derivative."""
        return Polynomial(
            i * c for i, c in enumerate(self._coefficients) if i > 0
        )

    def monic(self) -> "Polynomial":
        """Scale to leading coefficient one (zero stays zero)."""
        if self.is_zero():
            return self
        lead = self.leading_coefficient
        return Polynomial(c / lead for c in self._coefficients)

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor by Euclid's algorithm."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else ZERO

    def content_free(self) -> "Polynomial":
        """Primitive part: divide out the gcd of numerators over lcm of
        denominators so coefficients are coprime integers (sign of the
        leading coefficient preserved).  Keeps Bareiss entries small."""
        if self.is_zero():
            return self
        from math import gcd as igcd
        from math import lcm as ilcm

        denominator_lcm = 1
        for c in self._coefficients:
            denominator_lcm = ilcm(denominator_lcm, c.denominator)
        integers = [int(c * denominator_lcm) for c in self._coefficients]
        g = 0
        for value in integers:
            g = igcd(g, abs(value))
        if g == 0:
            return self
        return Polynomial(Fraction(value, g) for value in integers)

    def sign_changes(self) -> int:
        """Descartes count: sign changes in the nonzero coefficients.

        By Descartes' rule of signs, the number of positive real roots
        (with multiplicity) equals this count minus a nonnegative even
        integer; a count of one certifies exactly one positive root -- the
        argument the paper uses to show each crossover is unique.
        """
        signs = [1 if c > 0 else -1 for c in self._coefficients if c != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    # ------------------------------------------------------------------ #
    # Equality / rendering
    # ------------------------------------------------------------------ #

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._coefficients == rhs._coefficients

    def __hash__(self) -> int:
        return hash(self._coefficients)

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()})"

    def to_string(self, variable: str = "r") -> str:
        """Human-readable rendering, highest power first."""
        if self.is_zero():
            return "0"
        parts = []
        for power in range(self.degree, -1, -1):
            c = self[power]
            if c == 0:
                continue
            magnitude = abs(c)
            if power == 0:
                body = f"{magnitude}"
            elif power == 1:
                body = f"{variable}" if magnitude == 1 else f"{magnitude}*{variable}"
            else:
                body = (
                    f"{variable}^{power}"
                    if magnitude == 1
                    else f"{magnitude}*{variable}^{power}"
                )
            sign = "-" if c < 0 else ("+" if parts else "")
            parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
        return " ".join(parts)


#: The zero polynomial.
ZERO = Polynomial()
#: The unit polynomial.
ONE = Polynomial([1])
#: The variable itself (the repair/failure ratio r in this package).
X = Polynomial([0, 1])
