"""Exact linear solvers: over the integers and over integer polynomials.

* :func:`fraction_solve` -- Gaussian elimination for rational entries, for
  steady states *exactly at a rational ratio* (the paper's "computed
  exactly using rational arithmetic" check of each crossover bracket).
* :func:`bareiss_solve` -- fraction-free (Bareiss) elimination over
  polynomials, for steady states as exact rational functions of
  ``r = mu/lambda`` (the paper's Maple ``solve`` step).  It returns
  Bareiss's own fraction-free pair ``(numerators, determinant)``: the
  solution is ``numerators[k] / determinant``.

Both eliminate on integer rows.  Each row is first multiplied by the least
common multiple of its denominators, so its entries are integers (or
polynomials with integer coefficients, kept as coefficient tuples), and no
step pays a ``Fraction`` gcd.  The systems are transposed CTMC generators,
a handful of nonzeros per row plus one row of ones, so a row is a ``dict``
from column to entry (the right-hand side at column ``n``) and zeros are
never stored or visited.  At column *k* the pivot is the unused row with a
nonzero there and the fewest nonzeros overall, which keeps fill-in small;
if there is none, the matrix is singular.  Scaling a row by a nonzero
integer changes neither the solution nor which entries are zero, so the
pivot order and the singular cases are those of elimination over the
rationals.  The pivot order cannot change a result either: a nonsingular
system has exactly one solution, and ``Fraction`` and
:class:`~repro.ratfunc.RationalFunction` values are kept fully reduced, so
every order returns the same values, bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Any

from ..errors import AlgebraError, SingularSystemError
from .polynomial import Polynomial

__all__ = ["fraction_solve", "bareiss_solve"]

#: A polynomial with integer coefficients, ascending, no trailing zeros;
#: ``()`` is zero.
_Coefficients = tuple[int, ...]


def fraction_solve(
    matrix: Sequence[Sequence[Any]], rhs: Sequence[Any]
) -> list[Fraction]:
    """Solve ``matrix @ x = rhs`` exactly over the rationals.

    Entries are integers or anything :class:`~fractions.Fraction` accepts.
    Sparse elimination on integer rows with the pivot rule above: step *k*
    replaces each later row with a nonzero head by ``a * row - b *
    pivot_row``, ``a / b`` being the pivot over the head in lowest terms,
    and divides out the row's content.  Back-substitution keeps one common
    denominator.  Raises :class:`SingularSystemError` when no unique
    solution exists.
    """
    rows = [
        _clear_denominators(row) for row in _sparse_rows(matrix, rhs, "fraction_solve")
    ]
    n = len(rows)
    for k in range(n):
        pivot_row = _pivot(rows, k)
        pivot = pivot_row[k]
        others = [(j, value) for j, value in pivot_row.items() if j != k]
        for row in rows[k + 1 :]:
            head = row.pop(k, 0)
            if not head:
                continue
            common = gcd(pivot, head)
            a, b = pivot // common, head // common
            if a != 1:
                for j in row:
                    row[j] *= a
            for j, value in others:
                if entry := row.get(j, 0) - b * value:
                    row[j] = entry
                else:
                    del row[j]
            content = gcd(*row.values())
            if content > 1:
                for j in row:
                    row[j] //= content
    numerators = [0] * n
    denominator = 1
    for k in range(n - 1, -1, -1):
        row = rows[k]
        value = row.get(n, 0) * denominator - sum(
            v * numerators[j] for j, v in row.items() if k < j < n
        )
        common = gcd(value, row[k])
        value, scale = value // common, row[k] // common
        if scale < 0:
            value, scale = -value, -scale
        if scale != 1:
            for j in range(k + 1, n):
                numerators[j] *= scale
            denominator *= scale
        numerators[k] = value
    return [Fraction(value, denominator) for value in numerators]


def bareiss_solve(
    matrix: Sequence[Sequence[Any]], rhs: Sequence[Any]
) -> tuple[list[Polynomial], Polynomial]:
    """Solve ``matrix @ x = rhs`` over polynomials, fraction-free.

    Entries are :class:`Polynomial` values, rational constants, or tuples of
    coefficients in ascending order (``(f, r)`` is ``f + r*x``).  Returns
    ``(numerators, determinant)`` with ``x[k] = numerators[k] /
    determinant``, both with integer coefficients; ``determinant`` is that
    of the system after each row's denominators are cleared.

    Fraction-free elimination (Bareiss 1968) with the pivot rule above: step
    *k* replaces each later row by ``(pivot * row - head * pivot_row) /
    previous_pivot``, ``head`` being its column-*k* entry.  Rows whose head
    is zero are rescaled too, so every entry stays a minor of the integer
    matrix, each division is exact over the integers, and the last pivot is
    the determinant.  Back-substitution finds the polynomials ``determinant
    * x``.  Raises :class:`SingularSystemError` when no unique solution
    exists.
    """
    rows = [
        _clear_poly_denominators(row)
        for row in _sparse_rows(matrix, rhs, "bareiss_solve")
    ]
    n = len(rows)
    previous: _Coefficients = (1,)
    for k in range(n):
        pivot_row = _pivot(rows, k)
        pivot = pivot_row[k]
        others = [(j, value) for j, value in pivot_row.items() if j != k]
        for i in range(k + 1, n):
            head = rows[i].pop(k, ())
            combined = {j: _mul(pivot, value) for j, value in rows[i].items()}
            if head:
                for j, value in others:
                    combined[j] = _sub(combined.get(j, ()), _mul(head, value))
            rows[i] = {
                j: _exact_div(value, previous) for j, value in combined.items() if value
            }
        previous = pivot
    scaled: list[_Coefficients] = [()] * n
    for k in range(n - 1, -1, -1):
        row = rows[k]
        total = _mul(previous, row.get(n, ()))
        for j, value in row.items():
            if k < j < n:
                total = _sub(total, _mul(value, scaled[j]))
        scaled[k] = _exact_div(total, row[k])
    return [Polynomial(value) for value in scaled], Polynomial(previous)


def _sparse_rows(
    matrix: Sequence[Sequence[Any]], rhs: Sequence[Any], solver: str
) -> list[dict[int, Any]]:
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise AlgebraError(f"{solver} needs a square system")
    return [
        {j: value for j, value in enumerate([*row, last]) if value}
        for row, last in zip(matrix, rhs)
    ]


def _clear_denominators(row: dict[int, Any]) -> dict[int, int]:
    """The row times the lcm of its denominators: integers, same zeros."""
    if all(type(value) is int for value in row.values()):
        return row
    exact = {j: Fraction(value) for j, value in row.items()}
    scale = lcm(*(value.denominator for value in exact.values()))
    return {
        j: value.numerator * (scale // value.denominator) for j, value in exact.items()
    }


def _clear_poly_denominators(row: dict[int, Any]) -> dict[int, _Coefficients]:
    """:func:`_clear_denominators` for a row of polynomial entries."""
    row = {j: c for j, value in row.items() if (c := _as_coefficients(value))}
    if all(type(c) is int for value in row.values() for c in value):
        return row
    exact = {j: [Fraction(c) for c in value] for j, value in row.items()}
    scale = lcm(*(c.denominator for value in exact.values() for c in value))
    return {
        j: tuple(c.numerator * (scale // c.denominator) for c in value)
        for j, value in exact.items()
    }


def _pivot(rows: list[dict[int, Any]], k: int) -> dict[int, Any]:
    """Swap the sparsest row ``i >= k`` with a nonzero in column ``k`` to ``k``."""
    candidates = [i for i in range(k, len(rows)) if k in rows[i]]
    if not candidates:
        raise SingularSystemError(f"singular at column {k}")
    best = min(candidates, key=lambda i: len(rows[i]))
    rows[k], rows[best] = rows[best], rows[k]
    return rows[k]


def _as_coefficients(value: object) -> tuple[Any, ...]:
    """An entry as ascending coefficients without trailing zeros."""
    if isinstance(value, Polynomial):
        return value.coefficients
    coefficients = list(value) if isinstance(value, tuple) else [value]
    while coefficients and not coefficients[-1]:
        coefficients.pop()
    return tuple(coefficients)


def _mul(a: _Coefficients, b: _Coefficients) -> _Coefficients:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return tuple(out)


def _sub(a: _Coefficients, b: _Coefficients) -> _Coefficients:
    out = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _exact_div(a: _Coefficients, b: _Coefficients) -> _Coefficients:
    """``a / b`` for a quotient known to have integer coefficients."""
    if b == (1,):
        return a
    remainder = list(a)
    top = len(b) - 1
    lead = b[top]
    quotient = [0] * max(0, len(a) - top)
    for shift in range(len(quotient) - 1, -1, -1):
        q, rest = divmod(remainder[shift + top], lead)
        if rest:
            raise AlgebraError("exact division had a nonzero remainder")
        if q:
            quotient[shift] = q
            for i, y in enumerate(b[:top], shift):
                remainder[i] -= q * y
    if any(remainder[:top]):
        raise AlgebraError("exact division had a nonzero remainder")
    return tuple(quotient)
