"""Transient analysis of the protocol chains.

The paper evaluates the limit ``t -> infinity`` only.  Two finite-horizon
quantities matter to an operator deploying one of these protocols, and
both fall out of the same chains:

* :func:`transient_availability` -- the probability that an update
  arriving at a random site at *time t* succeeds, starting from the
  healthy all-up state (``w . exp(Q t) e_0``); it decays from 1 toward the
  paper's steady-state number, and how fast it decays is the protocols'
  "honeymoon" period;
* :func:`mean_time_to_blocking` -- the expected time until the system
  first denies an update (first passage from the initial state into the
  blocked states), computed exactly from the available-states submatrix.

Both respect the site measure's ``k/n`` arrival weighting where it
applies.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import ChainError
from .ctmc import ChainSpec

__all__ = [
    "transient_availability",
    "mean_time_to_blocking",
    "expected_blocked_fraction",
]


def _initial_index(chain: ChainSpec) -> int:
    """Index of the healthy all-up state: the maximal-weight state.

    Every chain in this package starts with all *n* sites up, which is the
    unique state of weight 1 (k = n).
    """
    candidates = [
        i for i, state in enumerate(chain.states) if chain.weight(state) == 1
    ]
    if len(candidates) != 1:
        raise ChainError(
            f"chain {chain.name!r} has no unique all-up state; "
            "pass explicit initial state handling"
        )
    return candidates[0]


def transient_availability(
    chain: ChainSpec,
    ratio: float,
    times: Sequence[float],
    lam: float = 1.0,
) -> list[float]:
    """Site availability at each time, starting all-up at time zero.

    ``A(t) = sum_s w(s) * P(X(t) = s)`` with ``X(0)`` the all-up state.
    Uses one matrix exponential per requested time (the chains are small).
    """
    from scipy.linalg import expm

    if ratio <= 0:
        raise ChainError(f"repair/failure ratio must be positive: {ratio}")
    generator = chain.generator_matrix(lam, ratio * lam)
    start = np.zeros(chain.size)
    start[_initial_index(chain)] = 1.0
    weights = np.array([float(chain.weight(s)) for s in chain.states])
    values = []
    for t in times:
        if t < 0:
            raise ChainError(f"times must be nonnegative, got {t}")
        distribution = start @ expm(generator * t)
        values.append(float(distribution @ weights))
    return values


def mean_time_to_blocking(
    chain: ChainSpec, ratio: float, lam: float = 1.0
) -> float:
    """Expected time until the first blocked state, from all-up.

    Blocked states (weight zero) are made absorbing; the expected
    absorption time from the initial state solves
    ``Q_AA . h = -1`` over the available states *A*.
    """
    if ratio <= 0:
        raise ChainError(f"repair/failure ratio must be positive: {ratio}")
    generator = chain.generator_matrix(lam, ratio * lam)
    available = [i for i, s in enumerate(chain.states) if chain.weight(s) > 0]
    if not available:
        raise ChainError(f"chain {chain.name!r} has no available states")
    sub = generator[np.ix_(available, available)]
    rhs = -np.ones(len(available))
    hitting = np.linalg.solve(sub, rhs)
    start = _initial_index(chain)
    position = available.index(start)
    return float(hitting[position])


def expected_blocked_fraction(chain: ChainSpec, ratio: float) -> float:
    """Long-run fraction of time without a distinguished partition.

    This is the complement of the *traditional* availability measure
    (Section VI-C): the steady-state probability mass on the weight-zero
    states.
    """
    pi = chain.steady_state(ratio)
    return float(
        sum(p for state, p in pi.items() if chain.weight(state) == 0)
    )
