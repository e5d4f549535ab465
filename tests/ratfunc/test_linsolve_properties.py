"""Property tests tying the two exact solvers together.

The Bareiss symbolic solver and the Fraction pointwise solver are
independent implementations of the same mathematics; solving a random
polynomial system symbolically and then evaluating at random rational
points must agree with solving the already-evaluated system.  This is the
in-miniature version of the paper's "through a different set of software"
validation, applied to our own algebra.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import AlgebraError, SingularSystemError
from repro.ratfunc import Polynomial, RationalFunction, bareiss_solve, fraction_solve

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4)
linear_polys = st.builds(Polynomial.linear, coefficients, coefficients)


@st.composite
def systems(draw, size=3):
    matrix = [
        [draw(linear_polys) for _ in range(size)] for _ in range(size)
    ]
    rhs = [draw(linear_polys) for _ in range(size)]
    return matrix, rhs


def bareiss_rational(matrix, rhs):
    """:func:`bareiss_solve`'s fraction-free pair as rational functions."""
    xs, d = bareiss_solve(matrix, rhs)
    return [RationalFunction(x, d) for x in xs]


@given(system=systems(), point=st.fractions(min_value=-3, max_value=3, max_denominator=6))
@settings(max_examples=60, deadline=None)
def test_symbolic_solution_evaluates_to_pointwise_solution(system, point):
    matrix, rhs = system
    try:
        symbolic = bareiss_rational(matrix, rhs)
    except SingularSystemError:
        return
    evaluated_matrix = [[entry(point) for entry in row] for row in matrix]
    evaluated_rhs = [entry(point) for entry in rhs]
    try:
        pointwise = fraction_solve(evaluated_matrix, evaluated_rhs)
    except SingularSystemError:
        return  # the point hits a root of the determinant
    for sym, exact in zip(symbolic, pointwise):
        try:
            value = sym(Fraction(point))
        except AlgebraError:
            return  # pole exactly at the sample point
        assert value == exact


@given(system=systems(size=2))
@settings(max_examples=60, deadline=None)
def test_bareiss_solution_satisfies_the_system(system):
    matrix, rhs = system
    try:
        solution = bareiss_rational(matrix, rhs)
    except SingularSystemError:
        return
    for row, b in zip(matrix, rhs):
        total = RationalFunction(Polynomial())
        for coefficient, x in zip(row, solution):
            total = total + RationalFunction(coefficient) * x
        assert total == RationalFunction(b)


@given(
    ratio=st.fractions(min_value=Fraction(1, 20), max_value=15, max_denominator=30),
    n=st.integers(3, 6),
)
@settings(max_examples=30, deadline=None)
def test_chain_symbolic_equals_chain_exact(ratio, n):
    """End-to-end: the symbolic hybrid availability evaluates exactly."""
    from repro.markov import availability_exact, availability_symbolic

    symbolic = availability_symbolic("hybrid", n)
    assert symbolic(ratio) == availability_exact("hybrid", n, ratio)
