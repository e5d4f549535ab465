"""Exact linear solvers: over the rationals and over polynomial entries.

* :func:`fraction_solve` -- Gaussian elimination over ``Fraction`` entries,
  for steady states *exactly at a rational ratio* (the paper's "computed
  exactly using rational arithmetic" check of each crossover bracket).
* :func:`bareiss_solve` -- fraction-free (Bareiss) elimination over
  polynomials, for steady states as exact rational functions of
  ``r = mu/lambda`` (the paper's Maple ``solve`` step).

Both eliminate on sparse rows.  The systems are transposed CTMC generators,
a handful of nonzeros per row plus one row of ones, so a row is a ``dict``
from column to entry (the right-hand side at column ``n``) and zeros are
never stored or visited.  At column *k* the pivot is the unused row with a
nonzero there and the fewest nonzeros overall, which keeps fill-in small;
if there is none, the matrix is singular.  The pivot order cannot change a
result: a nonsingular system has exactly one solution, and ``Fraction`` and
:class:`RationalFunction` values are kept fully reduced, so every order
returns the same values, bit for bit.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from typing import Any, TypeVar

from ..errors import AlgebraError, SingularSystemError
from .polynomial import ONE, ZERO, Polynomial
from .rational import RationalFunction

__all__ = ["fraction_solve", "bareiss_solve"]

_Entry = TypeVar("_Entry", Fraction, Polynomial)


def fraction_solve(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction]:
    """Solve ``matrix @ x = rhs`` exactly over the rationals.

    Sparse Gaussian elimination with the pivot rule above.  Raises
    :class:`SingularSystemError` when no unique solution exists.
    """
    rows = _sparse_rows(matrix, rhs, Fraction, "fraction_solve")
    n = len(rows)
    for k in range(n):
        pivot_row = _pivot(rows, k)
        for row in [r for r in rows[k + 1 :] if k in r]:
            factor = row.pop(k) / pivot_row[k]
            for j, value in pivot_row.items():
                if j != k:
                    if entry := row.get(j, 0) - factor * value:
                        row[j] = entry
                    else:
                        del row[j]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        row = rows[k]
        known = sum((v * x[j] for j, v in row.items() if k < j < n), Fraction(0))
        x[k] = (row.get(n, 0) - known) / row[k]
    return x


def bareiss_solve(
    matrix: Sequence[Sequence[Polynomial]], rhs: Sequence[Polynomial]
) -> list[RationalFunction]:
    """Solve ``matrix @ x = rhs`` over polynomials, exactly.

    Fraction-free elimination (Bareiss 1968) with the pivot rule above: step
    *k* replaces each later row by ``(pivot * row - head * pivot_row) /
    previous_pivot``, ``head`` being its column-*k* entry.  Rows whose head
    is zero are rescaled too, so every entry stays a minor of the original
    matrix, each division is exact, and the last pivot is the determinant.
    Back-substitution finds the polynomials ``determinant * x``.  Raises
    :class:`SingularSystemError` when no unique solution exists.
    """
    rows = _sparse_rows(matrix, rhs, _as_poly, "bareiss_solve")
    n = len(rows)
    previous = ONE
    for k in range(n):
        pivot_row = _pivot(rows, k)
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            head = rows[i].pop(k, ZERO)
            combined = {j: pivot * value for j, value in rows[i].items()}
            if head:
                for j, value in pivot_row.items():
                    if j != k:
                        combined[j] = combined.get(j, ZERO) - head * value
            rows[i] = {j: v.exact_div(previous) for j, v in combined.items() if v}
        previous = pivot
    scaled = [ZERO] * n
    for k in range(n - 1, -1, -1):
        row = rows[k]
        known = sum((v * scaled[j] for j, v in row.items() if k < j < n), ZERO)
        scaled[k] = (previous * row.get(n, ZERO) - known).exact_div(row[k])
    return [RationalFunction(value, previous) for value in scaled]


def _sparse_rows(
    matrix: Sequence[Sequence[Any]],
    rhs: Sequence[Any],
    convert: Callable[[Any], _Entry],
    solver: str,
) -> list[dict[int, _Entry]]:
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise AlgebraError(f"{solver} needs a square system")
    return [
        {j: convert(value) for j, value in enumerate([*row, last]) if value}
        for row, last in zip(matrix, rhs)
    ]


def _pivot(rows: list[dict[int, _Entry]], k: int) -> dict[int, _Entry]:
    """Swap the sparsest row ``i >= k`` with a nonzero in column ``k`` to ``k``."""
    candidates = [i for i in range(k, len(rows)) if k in rows[i]]
    if not candidates:
        raise SingularSystemError(f"singular at column {k}")
    best = min(candidates, key=lambda i: len(rows[i]))
    rows[k], rows[best] = rows[best], rows[k]
    return rows[k]


def _as_poly(value: object) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(value)
