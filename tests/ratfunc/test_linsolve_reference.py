"""The sparse solvers against the dense reference eliminations.

Random zero-heavy systems exercise the sparse pivot rule, fill-in and
singularity detection; the captured Markov systems are the ones the
Theorem 3 table actually solves.  Either way the sparse solver must return
exactly the reference solution, or raise :class:`SingularSystemError`
exactly when the reference does.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import markov
from repro.analysis import PAPER_CROSSOVERS
from repro.errors import SingularSystemError
from repro.markov import ctmc
from repro.ratfunc import Polynomial, RationalFunction, bareiss_solve, fraction_solve

from .dense_reference import dense_bareiss_solve, dense_fraction_solve

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(bool)
constant_or_linear = st.one_of(
    st.builds(Polynomial.constant, fractions),
    st.builds(Polynomial.linear, fractions, fractions),
)


@st.composite
def zero_heavy_systems(draw, nonzeros, zero):
    """A square system of size 1..8 whose entries are mostly zero.

    ``sparse`` systems fill at most a third of their entries at random and
    are often singular for want of a nonzero in some column.
    ``transversal`` systems also get a nonzero entry on a random
    permutation's positions, so most of them are nonsingular.
    ``dependent`` ones then have their last row replaced by the sum of two
    rows: singular, with nonzeros in every column.
    """
    n = draw(st.integers(1, 8))
    shape = draw(st.sampled_from(["sparse", "transversal", "transversal", "dependent"]))
    cells = [(i, j) for i in range(n) for j in range(n + 1)]  # column n: rhs
    filled = draw(st.sets(st.sampled_from(cells), max_size=len(cells) // 3))
    if shape != "sparse":
        filled |= set(enumerate(draw(st.permutations(range(n)))))
    augmented = [[zero] * (n + 1) for _ in range(n)]
    for i, j in sorted(filled):
        augmented[i][j] = draw(nonzeros)
    if shape == "dependent" and n > 1:
        augmented[-1] = [a + b for a, b in zip(augmented[0], augmented[-2])]
    return [row[:n] for row in augmented], [row[n] for row in augmented]


def bareiss_rational(matrix, rhs):
    """:func:`bareiss_solve`'s fraction-free pair as rational functions."""
    xs, d = bareiss_solve(matrix, rhs)
    return [RationalFunction(x, d) for x in xs]


def solve_or_singular(solver, matrix, rhs):
    try:
        return solver(matrix, rhs)
    except SingularSystemError:
        return SingularSystemError


@given(zero_heavy_systems(fractions, Fraction(0)))
@settings(max_examples=200, deadline=None)
def test_fraction_solve_matches_dense_reference(system):
    matrix, rhs = system
    assert solve_or_singular(fraction_solve, matrix, rhs) == solve_or_singular(
        dense_fraction_solve, matrix, rhs
    )


@given(zero_heavy_systems(constant_or_linear, Polynomial()))
@settings(max_examples=100, deadline=None)
def test_bareiss_solve_matches_dense_reference(system):
    matrix, rhs = system
    assert solve_or_singular(bareiss_rational, matrix, rhs) == solve_or_singular(
        dense_bareiss_solve, matrix, rhs
    )


def captured_systems(monkeypatch, protocol, n, ratio):
    """The systems ``ChainSpec.steady_state_exact`` hands to ``fraction_solve``."""
    systems = []

    def capture(matrix, rhs):
        systems.append((matrix, rhs))
        return fraction_solve(matrix, rhs)

    with monkeypatch.context() as patch:
        patch.setattr(ctmc, "fraction_solve", capture)
        markov.availability_exact(protocol, n, ratio)
    return systems


@pytest.mark.parametrize("protocol", ["hybrid", "dynamic-linear"])
def test_chain_systems_solve_identically(monkeypatch, protocol):
    systems = []
    for n in range(3, 21):
        ratio = Fraction(str(PAPER_CROSSOVERS[n]))
        systems += captured_systems(monkeypatch, protocol, n, ratio)
    assert len(systems) == 18
    for matrix, rhs in systems:
        assert fraction_solve(matrix, rhs) == dense_fraction_solve(matrix, rhs)
