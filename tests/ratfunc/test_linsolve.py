"""Unit and property tests for the exact linear solvers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AlgebraError, SingularSystemError
from repro.ratfunc import (
    ONE,
    Polynomial,
    RationalFunction,
    X,
    bareiss_solve,
    fraction_solve,
)


class TestFractionSolve:
    def test_two_by_two(self):
        solution = fraction_solve(
            [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]],
            [Fraction(5), Fraction(10)],
        )
        assert solution == [Fraction(1), Fraction(3)]

    def test_exactness(self):
        # A system with an awkward rational solution.
        solution = fraction_solve(
            [[Fraction(1, 3), Fraction(1, 7)], [Fraction(1, 2), Fraction(1, 5)]],
            [Fraction(1), Fraction(1)],
        )
        a = [[Fraction(1, 3), Fraction(1, 7)], [Fraction(1, 2), Fraction(1, 5)]]
        for row, rhs in zip(a, [Fraction(1), Fraction(1)]):
            assert sum(c * x for c, x in zip(row, solution)) == rhs

    def test_singular_rejected(self):
        with pytest.raises(SingularSystemError):
            fraction_solve(
                [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],
                [Fraction(1), Fraction(2)],
            )

    def test_non_square_rejected(self):
        with pytest.raises(AlgebraError):
            fraction_solve([[Fraction(1)]], [Fraction(1), Fraction(2)])

    def test_requires_pivoting(self):
        # Leading zero forces a row swap.
        solution = fraction_solve(
            [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]],
            [Fraction(7), Fraction(9)],
        )
        assert solution == [Fraction(9), Fraction(7)]

    @given(
        st.lists(
            st.lists(
                st.fractions(min_value=-9, max_value=9, max_denominator=5),
                min_size=3,
                max_size=3,
            ),
            min_size=3,
            max_size=3,
        ),
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=5),
            min_size=3,
            max_size=3,
        ),
    )
    @settings(max_examples=50)
    def test_solution_satisfies_system(self, matrix, rhs):
        try:
            solution = fraction_solve(matrix, rhs)
        except SingularSystemError:
            return
        for row, b in zip(matrix, rhs):
            assert sum(c * x for c, x in zip(row, solution)) == b


def bareiss_rational(matrix, rhs):
    """:func:`bareiss_solve`'s fraction-free pair as rational functions."""
    xs, d = bareiss_solve(matrix, rhs)
    return [RationalFunction(x, d) for x in xs]


class TestBareissSolve:
    def test_constant_system_matches_fraction_solve(self):
        matrix = [[Polynomial([2]), Polynomial([1])], [Polynomial([1]), Polynomial([3])]]
        rhs = [Polynomial([5]), Polynomial([10])]
        solution = bareiss_rational(matrix, rhs)
        assert [s(Fraction(0)) for s in solution] == [Fraction(1), Fraction(3)]

    def test_symbolic_system(self):
        # [x 1; 1 x] [a b]^T = [1 0] -> a = x/(x^2-1), b = -1/(x^2-1).
        solution = bareiss_rational([[X, ONE], [ONE, X]], [ONE, Polynomial()])
        assert solution[0] == RationalFunction(X, X * X - 1)
        assert solution[1] == RationalFunction(Polynomial([-1]), X * X - 1)

    def test_solution_satisfies_system_symbolically(self):
        matrix = [[X + 1, X], [ONE, X + 2]]
        rhs = [X * X, ONE]
        solution = bareiss_rational(matrix, rhs)
        for row, b in zip(matrix, rhs):
            total = RationalFunction(Polynomial())
            for coefficient, x in zip(row, solution):
                total = total + RationalFunction(coefficient) * x
            assert total == RationalFunction(b)

    def test_singular_symbolic_rejected(self):
        with pytest.raises(SingularSystemError):
            bareiss_solve([[X, X], [X, X]], [ONE, ONE])

    def test_pivoting_on_zero_leading_entry(self):
        solution = bareiss_rational(
            [[Polynomial(), ONE], [ONE, Polynomial()]], [X, X + 1]
        )
        assert solution[0] == RationalFunction(X + 1)
        assert solution[1] == RationalFunction(X)

    def test_accepts_scalars(self):
        solution = bareiss_rational([[2, 0], [0, 4]], [2, 8])
        assert solution[0] == RationalFunction(ONE)
        assert solution[1] == RationalFunction(Polynomial([2]))

    def test_returns_the_fraction_free_pair(self):
        # The sparser second row pivots first, so the determinant is that
        # of the swapped matrix, 1 - x^2, and each numerator is it times x.
        xs, d = bareiss_solve([[X, ONE], [ONE, X]], [ONE, Polynomial()])
        assert (xs, d) == ([-X, ONE], 1 - X * X)

    def test_clears_each_rows_denominators(self):
        # x / 2 = 1 / 3 is eliminated as 3x = 2.
        xs, d = bareiss_solve([[Fraction(1, 2)]], [Fraction(1, 3)])
        assert (xs, d) == ([Polynomial([2])], Polynomial([3]))

    def test_accepts_coefficient_tuples(self):
        # (1 + x) y = x, with each entry given as ascending coefficients.
        assert bareiss_solve([[(1, 1)]], [(0, 1)]) == ([X], X + 1)
