"""Unit and property tests for rational functions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AlgebraError
from repro.ratfunc import ONE, ZERO, Polynomial, RationalFunction, X

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=10)
polys = st.lists(fractions, min_size=0, max_size=4).map(Polynomial)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
rationals = st.builds(RationalFunction, polys, nonzero_polys)


class TestReduction:
    def test_common_factor_cancelled(self):
        f = RationalFunction(X**2 - 1, X - 1)
        assert f.numerator == X + 1
        assert f.denominator == ONE
        assert f.is_polynomial()

    def test_denominator_made_monic(self):
        f = RationalFunction(X, 2 * X + 2)
        assert f.denominator == X + 1
        assert f.numerator == Polynomial([0, Fraction(1, 2)])

    def test_zero_numerator_normalises_fully(self):
        f = RationalFunction(ZERO, X**5 + 3)
        assert f.is_zero()
        assert f.denominator == ONE

    def test_zero_denominator_rejected(self):
        with pytest.raises(AlgebraError):
            RationalFunction(X, ZERO)

    def test_scalar_constructor(self):
        f = RationalFunction.constant(Fraction(2, 3))
        assert f(100) == Fraction(2, 3)


class TestFieldOperations:
    def test_addition_with_common_denominator(self):
        f = RationalFunction(ONE, X) + RationalFunction(ONE, X)
        assert f == RationalFunction(Polynomial([2]), X)

    def test_subtraction_to_zero(self):
        f = RationalFunction(X, X + 1)
        assert (f - f).is_zero()

    def test_multiplication_cancels(self):
        f = RationalFunction(X + 1, X + 2) * RationalFunction(X + 2, X + 1)
        assert f == RationalFunction(ONE)

    def test_division(self):
        f = RationalFunction(X) / RationalFunction(X + 1)
        assert f == RationalFunction(X, X + 1)

    def test_division_by_zero_rejected(self):
        with pytest.raises(AlgebraError):
            RationalFunction(X) / RationalFunction(ZERO)

    def test_scalar_coercion(self):
        f = RationalFunction(X) + 1
        assert f == RationalFunction(X + 1)
        assert 2 * RationalFunction(X) == RationalFunction(2 * X)

    @given(rationals, rationals)
    @settings(max_examples=40)
    def test_commutativity(self, f, g):
        assert f + g == g + f
        assert f * g == g * f

    @given(rationals, rationals, rationals)
    @settings(max_examples=25)
    def test_associativity_of_addition(self, f, g, h):
        assert (f + g) + h == f + (g + h)

    @given(rationals)
    @settings(max_examples=40)
    def test_additive_inverse(self, f):
        assert (f + (-f)).is_zero()

    @given(rationals)
    @settings(max_examples=40)
    def test_multiplicative_inverse(self, f):
        if f.is_zero():
            return
        assert f / f == RationalFunction(ONE)


class TestEvaluation:
    def test_exact_fraction_evaluation(self):
        f = RationalFunction(X + 1, X - 1)
        assert f(Fraction(3)) == Fraction(2)

    def test_pole_raises(self):
        f = RationalFunction(ONE, X - 1)
        with pytest.raises(AlgebraError):
            f(1)

    def test_sign_at(self):
        f = RationalFunction(X - 2, X + 1)
        assert f.sign_at(Fraction(3)) == 1
        assert f.sign_at(Fraction(1)) == -1
        assert f.sign_at(Fraction(2)) == 0

    @given(rationals, fractions)
    @settings(max_examples=40)
    def test_evaluation_consistent_with_num_den(self, f, point):
        if f.denominator(point) == 0:
            return
        assert f(point) == f.numerator(point) / f.denominator(point)
