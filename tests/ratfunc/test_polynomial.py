"""Unit and property tests for exact polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AlgebraError
from repro.ratfunc import ONE, ZERO, Polynomial, X

fractions = st.fractions(
    min_value=-100, max_value=100, max_denominator=20
)
polynomials = st.lists(fractions, min_size=0, max_size=6).map(Polynomial)


class TestConstruction:
    def test_trailing_zeros_stripped(self):
        assert Polynomial([1, 2, 0, 0]).degree == 1

    def test_zero_polynomial(self):
        assert ZERO.degree == -1
        assert ZERO.is_zero()
        assert not ZERO

    def test_constant(self):
        p = Polynomial.constant(Fraction(3, 4))
        assert p.degree == 0
        assert p(10) == Fraction(3, 4)

    def test_monomial(self):
        p = Polynomial.monomial(3, 2)
        assert p.degree == 3
        assert p(2) == 16

    def test_negative_monomial_degree_rejected(self):
        with pytest.raises(AlgebraError):
            Polynomial.monomial(-1)

    def test_linear(self):
        p = Polynomial.linear(3, 2)  # 3 + 2x
        assert p(5) == 13

    def test_irrational_coefficient_rejected(self):
        with pytest.raises(AlgebraError):
            Polynomial([0.5])

    def test_getitem_out_of_range_is_zero(self):
        p = Polynomial([1, 2])
        assert p[5] == 0


class TestArithmetic:
    def test_addition(self):
        assert (X + 1) + (X - 1) == 2 * X

    def test_subtraction_cancels(self):
        p = 3 * X**2 + X
        assert (p - p).is_zero()

    def test_multiplication(self):
        assert (X + 1) * (X - 1) == X**2 - 1

    def test_power(self):
        assert (X + 1) ** 3 == X**3 + 3 * X**2 + 3 * X + 1

    def test_negative_power_rejected(self):
        with pytest.raises(AlgebraError):
            X ** -1

    def test_scalar_coercion(self):
        assert X * Fraction(1, 2) == Polynomial([0, Fraction(1, 2)])
        assert 1 + X == Polynomial([1, 1])

    def test_divmod_exact(self):
        quotient, remainder = divmod(X**2 - 1, X - 1)
        assert quotient == X + 1
        assert remainder.is_zero()

    def test_divmod_with_remainder(self):
        quotient, remainder = divmod(X**2 + 1, X - 1)
        assert quotient == X + 1
        assert remainder == Polynomial([2])

    def test_division_by_zero_rejected(self):
        with pytest.raises(AlgebraError):
            divmod(X, ZERO)

    def test_exact_div_rejects_remainders(self):
        with pytest.raises(AlgebraError):
            (X**2 + 1).exact_div(X - 1)

    @given(polynomials, polynomials)
    @settings(max_examples=60)
    def test_commutative_ring_axioms(self, p, q):
        assert p + q == q + p
        assert p * q == q * p
        assert p + ZERO == p
        assert p * ONE == p
        assert (p - p).is_zero()

    @given(polynomials, polynomials, polynomials)
    @settings(max_examples=40)
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polynomials, polynomials)
    @settings(max_examples=40)
    def test_division_algorithm(self, p, q):
        if q.is_zero():
            return
        quotient, remainder = divmod(p, q)
        assert quotient * q + remainder == p
        assert remainder.is_zero() or remainder.degree < q.degree

    @given(polynomials, polynomials, fractions)
    @settings(max_examples=40)
    def test_evaluation_is_a_homomorphism(self, p, q, point):
        assert (p * q)(point) == p(point) * q(point)
        assert (p + q)(point) == p(point) + q(point)


class TestCalculusAndStructure:
    def test_derivative(self):
        assert (X**3 + 2 * X).derivative() == 3 * X**2 + 2

    def test_derivative_of_constant(self):
        assert Polynomial.constant(5).derivative().is_zero()

    def test_monic(self):
        assert (2 * X + 4).monic() == X + 2

    def test_gcd(self):
        p = (X - 1) * (X - 2)
        q = (X - 1) * (X + 5)
        assert p.gcd(q) == X - 1

    def test_gcd_of_coprimes_is_one(self):
        assert (X + 1).gcd(X + 2) == ONE

    @given(polynomials, polynomials)
    @settings(max_examples=30)
    def test_gcd_divides_both(self, p, q):
        g = p.gcd(q)
        if g.is_zero():
            assert p.is_zero() and q.is_zero()
            return
        assert (p % g).is_zero()
        assert (q % g).is_zero()

    def test_content_free(self):
        p = Polynomial([Fraction(2, 3), Fraction(4, 3)])
        primitive = p.content_free()
        assert primitive == Polynomial([1, 2])

    def test_sign_changes_descartes(self):
        # x^3 - 7x + 6 = (x-1)(x-2)(x+3): signs + - + -> 2 changes, 2 roots.
        p = X**3 - 7 * X + 6
        assert p.sign_changes() == 2

    def test_no_sign_changes_means_no_positive_roots(self):
        assert (X**2 + X + 1).sign_changes() == 0

    def test_to_string(self):
        assert (X**2 - 2 * X + 1).to_string() == "r^2 - 2*r + 1"
        assert ZERO.to_string() == "0"
