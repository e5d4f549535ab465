"""Dense reference solvers: the exact-arithmetic oracle for ``linsolve``.

These are the textbook dense eliminations that
:func:`repro.ratfunc.fraction_solve` and :func:`repro.ratfunc.bareiss_solve`
replaced with sparse-row elimination.  They visit every entry, zeros
included, and pivot by value (largest magnitude, lowest degree) instead of
by sparsity.  A nonsingular system has one exact solution, so the sparse
solvers must return exactly what these return and must raise
:class:`SingularSystemError` exactly when these do.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from repro.errors import AlgebraError, SingularSystemError
from repro.ratfunc import ONE, ZERO, Polynomial, RationalFunction


def dense_fraction_solve(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction]:
    """Gaussian elimination with a largest-magnitude pivot, over Fractions."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise AlgebraError("fraction_solve needs a square system")
    augmented = [
        [Fraction(value) for value in row] + [Fraction(rhs[i])]
        for i, row in enumerate(matrix)
    ]
    for k in range(n):
        pivot_row = max(range(k, n), key=lambda i: abs(augmented[i][k]), default=k)
        if augmented[pivot_row][k] == 0:
            raise SingularSystemError(f"singular at column {k}")
        if pivot_row != k:
            augmented[k], augmented[pivot_row] = augmented[pivot_row], augmented[k]
        pivot = augmented[k][k]
        for i in range(k + 1, n):
            factor = augmented[i][k] / pivot
            if factor == 0:
                continue
            row_i, row_k = augmented[i], augmented[k]
            row_i[k] = Fraction(0)
            for j in range(k + 1, n + 1):
                row_i[j] -= factor * row_k[j]
    solution = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        accumulated = augmented[i][n]
        row = augmented[i]
        for j in range(i + 1, n):
            accumulated -= row[j] * solution[j]
        solution[i] = accumulated / row[i]
    return solution


def dense_bareiss_solve(
    matrix: Sequence[Sequence[Polynomial]], rhs: Sequence[Polynomial]
) -> list[RationalFunction]:
    """Dense fraction-free (Bareiss) elimination with a lowest-degree pivot,
    then back-substitution in rational-function arithmetic."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise AlgebraError("bareiss_solve needs a square system")
    augmented: list[list[Polynomial]] = [
        [_as_poly(value) for value in row] + [_as_poly(rhs[i])]
        for i, row in enumerate(matrix)
    ]
    previous_pivot = ONE
    for k in range(n):
        pivot_row = None
        best_degree = None
        for i in range(k, n):
            entry = augmented[i][k]
            if entry.is_zero():
                continue
            if best_degree is None or entry.degree < best_degree:
                pivot_row, best_degree = i, entry.degree
        if pivot_row is None:
            raise SingularSystemError(f"singular at column {k}")
        if pivot_row != k:
            augmented[k], augmented[pivot_row] = augmented[pivot_row], augmented[k]
        pivot = augmented[k][k]
        for i in range(k + 1, n):
            row_i, row_k = augmented[i], augmented[k]
            head = row_i[k]
            row_i[k] = ZERO
            for j in range(k + 1, n + 1):
                row_i[j] = (pivot * row_i[j] - head * row_k[j]).exact_div(
                    previous_pivot
                )
        previous_pivot = pivot
    solution: list[RationalFunction] = [RationalFunction(ZERO)] * n
    for i in range(n - 1, -1, -1):
        accumulated = RationalFunction(augmented[i][n])
        row = augmented[i]
        for j in range(i + 1, n):
            accumulated = accumulated - RationalFunction(row[j]) * solution[j]
        solution[i] = accumulated / RationalFunction(row[i])
    return solution


def _as_poly(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(value)
