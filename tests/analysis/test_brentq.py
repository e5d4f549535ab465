"""The Brent port against scipy.optimize.brentq, its oracle, bit for bit.

:func:`repro.analysis.crossover.brentq` ports scipy's C iteration line for
line, so on the same function and bracket it must return the same float,
and raise where scipy raises.  The crossover scans are checked by
recording every bracket they refine and refining it with both.
"""

import math
import random

import pytest
import scipy.optimize

from repro.analysis import crossover, numeric_crossover, traditional_crossover
from repro.analysis.crossover import brentq
from repro.errors import AnalysisError


@pytest.fixture
def refinements(monkeypatch):
    """Every ``brentq`` call the scans make, refined by both solvers."""
    calls = []

    def both(f, a, b, **options):
        ours = brentq(f, a, b, **options)
        calls.append((a, b, ours, scipy.optimize.brentq(f, a, b, **options)))
        return ours

    monkeypatch.setattr(crossover, "brentq", both)
    return calls


def test_theorem3_differences(refinements):
    for n in range(3, 21):
        root = numeric_crossover("hybrid", "dynamic-linear", n)
        assert refinements[-1][2] == root
    assert len(refinements) == 18
    for a, b, ours, theirs in refinements:
        assert ours.hex() == theirs.hex(), (a, b)


def test_traditional_crossover_bracket(refinements):
    traditional_crossover("optimal-candidate", "hybrid", 5)
    ((a, b, ours, theirs),) = refinements
    assert ours.hex() == theirs.hex(), (a, b)


def test_seeded_random_brackets():
    rng = random.Random(2026)
    for _ in range(500):
        roots = sorted(rng.uniform(-5.0, 5.0) for _ in range(3))
        scale = rng.uniform(0.01, 3.0)

        def f(x, r=roots, scale=scale):
            return (x - r[0]) * (x - r[1]) * (x - r[2]) * math.exp(scale * x)

        a, b = rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0)
        xtol = rng.choice([2e-12, 1e-10, 1e-6])
        try:
            theirs = scipy.optimize.brentq(f, a, b, xtol=xtol)
        except ValueError:
            with pytest.raises(AnalysisError, match="different signs"):
                brentq(f, a, b, xtol=xtol)
            continue
        assert brentq(f, a, b, xtol=xtol).hex() == theirs.hex(), (roots, a, b)


def test_no_sign_change_raises_where_scipy_does():
    def f(x):
        return x * x + 1.0

    with pytest.raises(ValueError, match="different signs"):
        scipy.optimize.brentq(f, -1.0, 2.0)
    with pytest.raises(AnalysisError, match="different signs"):
        brentq(f, -1.0, 2.0)


def test_no_convergence_raises_where_scipy_does():
    # Equal |f| at every step forces bisection, and halving a bracket of
    # width 2e300 down to xtol takes about 1,000 steps, past the cap of 100.
    def step(x):
        return 1.0 if x > 0.3 else -1.0

    with pytest.raises(RuntimeError, match="converge"):
        scipy.optimize.brentq(step, -1e300, 1e300)
    with pytest.raises(AnalysisError, match="did not converge in 100 iterations"):
        brentq(step, -1e300, 1e300)
    theirs = scipy.optimize.brentq(step, -1.0, 1.0)
    assert brentq(step, -1.0, 1.0).hex() == theirs.hex()
