"""Unit and property tests for exact root counting and bisection."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import AlgebraError
from repro.ratfunc import (
    Polynomial,
    X,
    bisect_root,
    cauchy_bound,
    count_positive_roots,
    count_roots_between,
    isolate_positive_roots,
    sturm_sequence,
)


def poly_with_roots(*roots):
    p = Polynomial([1])
    for root in roots:
        p = p * (X - root)
    return p


class TestCauchyBound:
    def test_bounds_all_roots(self):
        p = poly_with_roots(3, -7, Fraction(1, 2))
        bound = cauchy_bound(p)
        assert bound >= 7

    def test_constant_rejected(self):
        with pytest.raises(AlgebraError):
            cauchy_bound(Polynomial([5]))


class TestSturm:
    def test_simple_roots_counted(self):
        p = poly_with_roots(1, 2, -3)
        assert count_positive_roots(p) == 2

    def test_repeated_roots_counted_once(self):
        p = poly_with_roots(2, 2, 2)
        assert count_positive_roots(p) == 1

    def test_no_positive_roots(self):
        assert count_positive_roots(poly_with_roots(-1, -2)) == 0
        assert count_positive_roots(X * X + 1) == 0

    def test_count_in_interval(self):
        p = poly_with_roots(1, 5, 9)
        assert count_roots_between(p, Fraction(0), Fraction(6)) == 2
        assert count_roots_between(p, Fraction(2), Fraction(4)) == 0

    def test_interval_is_half_open(self):
        p = poly_with_roots(3)
        # (0, 3] includes the root at 3; (3, 10] does not.
        assert count_roots_between(p, Fraction(0), Fraction(3)) == 1
        assert count_roots_between(p, Fraction(3), Fraction(10)) == 0

    def test_empty_interval_rejected(self):
        with pytest.raises(AlgebraError):
            count_roots_between(X, Fraction(2), Fraction(1))

    def test_sturm_sequence_ends_with_constant_for_squarefree(self):
        sequence = sturm_sequence(poly_with_roots(1, 2))
        assert sequence[-1].degree <= 0

    @given(
        st.lists(
            st.integers(min_value=-8, max_value=8), min_size=1, max_size=4
        )
    )
    @settings(max_examples=60)
    def test_matches_numpy_root_count(self, int_roots):
        p = poly_with_roots(*int_roots)
        expected = len({r for r in int_roots if r > 0})
        assert count_positive_roots(p) == expected

    @given(
        st.lists(
            st.fractions(min_value=-10, max_value=10, max_denominator=6),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60)
    # 6(r - 1)^2 (r^2 + 4r/3 + 1): np.roots puts an imaginary part of
    # ~1e-8 on the double root of p itself, so the oracle reads p's
    # square-free part, whose roots are simple.
    @example([Fraction(6), Fraction(-4), Fraction(-4), Fraction(-4), Fraction(6)])
    def test_against_numpy_on_random_coefficients(self, coefficients):
        p = Polynomial(coefficients)
        if p.degree < 1:
            return
        square_free = p // p.gcd(p.derivative())
        numpy_roots = np.roots(
            [float(c) for c in reversed(square_free.coefficients)]
        )
        distinct_positive = set()
        for root in numpy_roots:
            if abs(root.imag) < 1e-9 and root.real > 1e-9:
                distinct_positive.add(round(root.real, 6))
        assert count_positive_roots(p) == len(distinct_positive)


class TestIsolation:
    def test_each_interval_holds_one_root(self):
        p = poly_with_roots(1, 4, 9, -2)
        intervals = isolate_positive_roots(p)
        assert len(intervals) == 3
        for low, high in intervals:
            assert count_roots_between(p, low, high) == 1

    def test_intervals_are_disjoint_and_sorted(self):
        p = poly_with_roots(1, 2, 3)
        intervals = isolate_positive_roots(p)
        for (a, b), (c, d) in zip(intervals, intervals[1:]):
            assert b <= c

    def test_constant_has_no_intervals(self):
        assert isolate_positive_roots(Polynomial([3])) == []


class TestBisection:
    def test_bracket_shrinks_below_tolerance(self):
        p = poly_with_roots(2)
        low, high = bisect_root(p, Fraction(1), Fraction(3), Fraction(1, 10**6))
        assert high - low <= Fraction(1, 10**6)
        assert low <= 2 <= high

    def test_exact_hit_returns_point(self):
        p = poly_with_roots(2)
        low, high = bisect_root(p, Fraction(1), Fraction(3), Fraction(1, 4))
        # Midpoint of (1,3) is exactly the root.
        assert low == high == 2

    def test_endpoint_root_returned(self):
        p = poly_with_roots(1)
        assert bisect_root(p, Fraction(1), Fraction(2)) == (Fraction(1), Fraction(1))

    def test_no_sign_change_rejected(self):
        p = poly_with_roots(5)
        with pytest.raises(AlgebraError):
            bisect_root(p, Fraction(1), Fraction(2))

    def test_result_is_exact_rational_bracket(self):
        p = X * X - 2  # sqrt(2)
        low, high = bisect_root(p, Fraction(1), Fraction(2), Fraction(1, 10**9))
        assert p(low) < 0 < p(high)
        assert isinstance(low, Fraction) and isinstance(high, Fraction)
