"""Sensitivity of the results to the availability measure (Section VI-C).

The paper chooses the *site measure* (the update must arrive at an up
site of the distinguished partition) over the *traditional measure* (a
distinguished partition merely exists), "deeming it more appropriate".
This module quantifies how much that choice matters -- and the answer is
substantive (experiment A3): **Theorem 2 is measure-robust** (the hybrid
beats dynamic voting under either measure), but **Theorem 3 is not** --
under the traditional measure dynamic-linear beats the hybrid at *every*
repair/failure ratio, because its single-site distinguished partitions
count fully there while the site measure discounts them by ``1/n``.  The
paper's choice of measure is therefore load-bearing for its headline
crossover result.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..errors import AnalysisError
from ..markov import chain_for
from ..quorums import majority_availability, uniform_up_probability
from .crossover import scan_crossover

__all__ = [
    "traditional_availability",
    "traditional_availability_grid",
    "traditional_crossover",
]


def traditional_availability(protocol_name: str, n: int, ratio) -> float:
    """P(a distinguished partition exists) -- Section VI-C's first measure.

    For the chain protocols this is the steady-state mass on the available
    states (no ``k/n`` arrival factor); voting additionally has the
    closed binomial form (cross-checked in the tests).  A protocol
    without a chain raises :class:`~repro.errors.ChainError`.
    """
    if protocol_name == "voting":
        return majority_availability(
            n, uniform_up_probability(float(ratio)), measure="traditional"
        )
    chain = chain_for(protocol_name, n)
    pi = chain.steady_state(float(ratio))
    return float(sum(p for state, p in pi.items() if chain.weight(state) > 0))


def traditional_availability_grid(
    protocol_name: str, n: int, ratios: Sequence[float]
) -> tuple[float, ...]:
    """Traditional-measure availabilities across a whole ratio grid.

    The batched counterpart of :func:`traditional_availability`: chain
    protocols pay one stacked solve for all K ratios
    (:meth:`~repro.markov.ChainSpec.steady_state_grid`) and sum the mass
    on the available states; voting keeps its closed binomial form.
    """
    points = [float(ratio) for ratio in ratios]
    if protocol_name == "voting":
        return tuple(
            majority_availability(
                n, uniform_up_probability(point), measure="traditional"
            )
            for point in points
        )
    chain = chain_for(protocol_name, n)
    distributions = chain.steady_state_grid(points)
    available = [
        index
        for index, state in enumerate(chain.states)
        if chain.weight(state) > 0
    ]
    return tuple(
        float(distributions[k, available].sum()) for k in range(len(points))
    )


def traditional_crossover(
    first: str, second: str, n: int, low: float = 0.01, high: float = 50.0
) -> float:
    """The crossover ratio under the traditional measure.

    The traditional-measure :func:`~repro.analysis.crossover.scan_crossover`.
    """
    root = scan_crossover(
        traditional_availability,
        traditional_availability_grid,
        first,
        second,
        n,
        low,
        high,
        xtol=1e-10,
    )
    if root is None:
        raise AnalysisError(
            f"{first} and {second} do not cross on [{low}, {high}] at n={n} "
            "under the traditional measure"
        )
    return root
