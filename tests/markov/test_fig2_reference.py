"""``chain_for`` against the hand-built chains of Section VI.

:func:`repro.markov.chain_for` derives every chain from the protocol code;
:mod:`tests.markov.fig2_reference` transcribes the same chains by hand.
The two must agree in every state, weight and rate, and so in every
availability and mean time to blocking.  The modified hybrid, which has
no transcription, must agree with the hybrid's in value.
"""

from fractions import Fraction

import pytest

from repro.errors import ChainError
from repro.markov import (
    LUMP_SIGNATURES,
    ChainSpec,
    availability,
    availability_exact,
    availability_grid,
    availability_symbolic,
    chain_for,
    mean_time_to_blocking,
)
from repro.ratfunc import fraction_solve

from .fig2_reference import REFERENCE_CHAINS, hybrid_chain
from .test_lumping import assert_same_chain

#: The n at which a protocol's transcription starts.
REFERENCE_MIN_SITES = {"primary-site-voting": 2}
RATIOS = (Fraction(1, 4), Fraction(1), Fraction(8))
GRID = [0.1 * i for i in range(1, 201)]
#: Worst relative error of the float mean time to blocking on
#: ``chain_for``'s chains over the cases below: 5.1e-11 (dynamic-linear,
#: n = 9, r = 8) with numpy's OpenBLAS on x86-64.  The hand-built state
#: order reaches 4.4e-8 (dynamic-linear, n = 12, r = 8).
MTTB_RTOL = 1e-9


def exact_mean_time_to_blocking(chain: ChainSpec, ratio: Fraction) -> Fraction:
    """First passage from all-up into the blocked states, in Fractions.

    Solves ``Q_AA h = -1`` over the available states *A* at lambda = 1 and
    mu = ``ratio``: the same equations as
    :func:`repro.markov.mean_time_to_blocking`, with no rounding.
    """
    available = [state for state in chain.states if chain.weight(state) > 0]
    position = {state: i for i, state in enumerate(available)}
    matrix = [[Fraction(0)] * len(available) for _ in available]
    for i, state in enumerate(available):
        for target, failures, repairs in chain.transitions_from(state):
            rate = failures + repairs * ratio
            matrix[i][i] -= rate
            if target in position:
                matrix[i][position[target]] += rate
    hitting = fraction_solve(matrix, [Fraction(-1)] * len(available))
    (start,) = [state for state in available if chain.weight(state) == 1]
    return hitting[position[start]]


def reference_cases():
    for protocol, build in REFERENCE_CHAINS.items():
        for n in range(REFERENCE_MIN_SITES.get(protocol, 3), 13):
            yield pytest.param(protocol, n, build, id=f"{protocol}-{n}")


@pytest.mark.parametrize("protocol,n,build", reference_cases())
def test_chain_for_is_the_reference_chain(protocol, n, build):
    assert_same_chain(chain_for(protocol, n), build(n))


@pytest.mark.parametrize("protocol,n,build", reference_cases())
def test_mean_time_to_blocking_is_the_reference_value(protocol, n, build):
    chain = chain_for(protocol, n)
    for ratio in RATIOS:
        exact = exact_mean_time_to_blocking(chain, ratio)
        assert exact == exact_mean_time_to_blocking(build(n), ratio)
        assert mean_time_to_blocking(chain, float(ratio)) == pytest.approx(
            float(exact), rel=MTTB_RTOL, abs=0
        )


@pytest.mark.parametrize("protocol", [*REFERENCE_CHAINS, "modified-hybrid"])
@pytest.mark.parametrize("n", [3, 5, 8, 12])
def test_grids_agree_with_the_reference(protocol, n):
    reference = REFERENCE_CHAINS.get(protocol, hybrid_chain)(n).availability_grid(GRID)
    production = availability_grid(protocol, n, GRID, prefer_symbolic=False)
    assert max(abs(a - b) for a, b in zip(production, reference)) <= 1e-12


class TestModifiedHybridIsTheHybrid:
    """Section VII: the modified hybrid's own chain has the hybrid's values."""

    @pytest.mark.parametrize("n", range(3, 13))
    def test_exact_availability_and_blocking_time(self, n):
        modified, hybrid = chain_for("modified-hybrid", n), hybrid_chain(n)
        assert modified.size == 4 * n - 7  # the hybrid's 3n - 5, plus n - 2
        for ratio in (Fraction(1, 3), Fraction(1), Fraction(5, 2)):
            assert modified.availability_exact(ratio) == hybrid.availability_exact(
                ratio
            )
            assert exact_mean_time_to_blocking(
                modified, ratio
            ) == exact_mean_time_to_blocking(hybrid, ratio)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_symbolic_availability(self, n):
        assert (
            chain_for("modified-hybrid", n).availability_symbolic()
            == hybrid_chain(n).availability_symbolic()
        )


class TestBelowThreeSites:
    """No transcription reaches below n = 3; the closed forms are pinned."""

    @pytest.mark.parametrize("ratio", [Fraction(1, 3), Fraction(1), Fraction(5, 2)])
    def test_two_site_closed_forms(self, ratio):
        p = ratio / (1 + ratio)
        assert availability_exact("dynamic", 2, ratio) == p**2
        assert availability_exact("optimal-candidate", 2, ratio) == p**2
        assert availability_exact("dynamic-linear", 2, ratio) == p**2 + p * (1 - p) / 2

    @pytest.mark.parametrize("protocol", sorted(LUMP_SIGNATURES))
    def test_chain_for_answers_from_the_minimum(self, protocol):
        n = LUMP_SIGNATURES[protocol].min_sites
        chain = chain_for(protocol, n)
        for ratio in RATIOS:
            assert availability_exact(protocol, n, ratio) == chain.availability_exact(
                ratio
            )


@pytest.mark.parametrize("protocol", sorted(LUMP_SIGNATURES))
def test_one_limit_everywhere(protocol):
    """Below its minimum, every entry point raises the same ChainError."""
    minimum = LUMP_SIGNATURES[protocol].min_sites
    n = minimum - 1
    message = f"^the {protocol} chain needs n >= {minimum} sites, got {n}$"
    for call in (
        lambda: chain_for(protocol, n),
        lambda: availability(protocol, n, 1.0),
        lambda: availability_exact(protocol, n, Fraction(1)),
        lambda: availability_symbolic(protocol, n),
        lambda: availability_grid(protocol, n, [0.5, 1.0]),
    ):
        with pytest.raises(ChainError, match=message):
            call()
