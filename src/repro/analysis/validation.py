"""Validation harnesses: the paper's 3600-point check and our additions.

The paper guarded its mechanically-aided proof against software bugs by
recomputing both availabilities "through a different set of software" at
3600 grid points (mu/lambda from 0.1 to 20.0 at intervals of 0.1, for each
fixed n).  We reproduce the discipline with three *genuinely independent*
computations of the same quantity:

* the float path (numpy linear solves of the chain),
* the exact path (Fraction Gaussian elimination of the same equations),
* the protocol path (Monte-Carlo simulation of the *actual protocol code*
  under the model, and the automatically derived chain).

:func:`grid_agreement` runs the first two against each other;
:func:`montecarlo_agreement` and :func:`derived_chain_agreement` bring in
the third.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from ..core.registry import make_protocol
from ..errors import AnalysisError
from ..markov import (
    availability,
    availability_exact,
    availability_grid,
    chain_for,
    derive_chain,
)
from ..obs.metrics import MetricsRegistry
from ..types import site_names

__all__ = [
    "GridAgreement",
    "grid_agreement",
    "montecarlo_agreement",
    "derived_chain_agreement",
    "lumped_chain_agreement",
    "solver_agreement",
    "paper_grid",
]


def paper_grid(
    start: Fraction = Fraction(1, 10),
    stop: Fraction = Fraction(20),
    step: Fraction = Fraction(1, 10),
) -> list[Fraction]:
    """The paper's validation grid: 0.1 to 20.0 at intervals of 0.1."""
    grid = []
    ratio = Fraction(start)
    while ratio <= stop:
        grid.append(ratio)
        ratio += step
    return grid


@dataclass(frozen=True, slots=True)
class GridAgreement:
    """Result of a float-vs-exact sweep."""

    protocol: str
    n_sites: int
    points: int
    max_abs_error: float

    def ok(self, tolerance: float = 1e-9) -> bool:
        """True iff the float path never strays beyond ``tolerance``."""
        return self.max_abs_error <= tolerance


def grid_agreement(
    protocol: str,
    n: int,
    ratios: Sequence[Fraction] | None = None,
) -> GridAgreement:
    """Compare float and exact availabilities across a ratio grid.

    The float side goes through the batched grid solver (one stacked
    ``np.linalg.solve`` for the whole grid, ``prefer_symbolic=False`` so
    it genuinely exercises the linear-algebra path); the exact side stays
    point-by-point Fraction elimination -- two independent computations,
    as the paper's 3600-point check demands.
    """
    if ratios is None:
        ratios = paper_grid()
    numeric_values = availability_grid(
        protocol, n, [float(ratio) for ratio in ratios], prefer_symbolic=False
    )
    worst = 0.0
    for ratio, numeric in zip(ratios, numeric_values):
        exact = float(availability_exact(protocol, n, Fraction(ratio)))
        worst = max(worst, abs(exact - numeric))
    return GridAgreement(protocol, n, len(ratios), worst)


def montecarlo_agreement(
    protocol: str,
    n: int,
    ratio: float,
    *,
    replicates: int = 8,
    events: int = 20_000,
    seed: int = 2026,
    metrics: MetricsRegistry | None = None,
    workers: int | None = None,
    backend: str = "scalar",
) -> dict:
    """Check the analytic availability sits inside the Monte-Carlo band.

    Returns a report dict; raises :class:`AnalysisError` when the analytic
    value falls outside a ~4-sigma confidence interval (which, given the
    chain derivations are exact, indicates a protocol/chain mismatch, not
    noise).  ``metrics`` is forwarded to the Monte-Carlo estimator (the
    ``mc.*`` / ``sim.*`` series of docs/OBSERVABILITY.md), as are
    ``workers`` (parallel replicates are bitwise identical to serial,
    docs/PERFORMANCE.md) and ``backend`` (``"scalar"`` or
    ``"vectorized"``, docs/PERFORMANCE.md "Backends" -- with the
    vectorized backend this check pits three independent computations
    against each other: the chain, the scalar oracle's law, and the
    batched numpy kernels).
    """
    from ..sim import estimate_availability

    analytic = availability(protocol, n, ratio)
    result = estimate_availability(
        protocol, n, ratio, replicates=replicates, events=events, seed=seed,
        metrics=metrics, workers=workers, backend=backend,
    )
    if not result.agrees_with(analytic):
        low, high = result.confidence_interval(3.89)
        raise AnalysisError(
            f"Monte-Carlo disagrees with analytics for {protocol} at "
            f"n={n}, ratio={ratio}: analytic={analytic:.6f} outside "
            f"[{low:.6f}, {high:.6f}]"
        )
    return {
        "protocol": protocol,
        "n_sites": n,
        "ratio": ratio,
        "backend": backend,
        "analytic": analytic,
        "montecarlo": result.mean,
        "stderr": result.stderr,
    }


def derived_chain_agreement(
    protocol: str,
    n: int,
    ratios: Sequence[float] = (0.3, 1.0, 3.0),
    tolerance: float = 1e-10,
) -> dict:
    """Compare :func:`availability` against the site-labelled chain.

    The site-labelled chain executes the real protocol implementation
    state by state with no lumping, so agreement here validates the
    closed forms and the lumping signatures behind the analytic values.
    Raises :class:`AnalysisError` on disagreement.
    """
    derived = derive_chain(make_protocol(protocol, site_names(n)))
    worst = 0.0
    for ratio in ratios:
        expected = availability(protocol, n, ratio)
        measured = derived.availability(ratio)
        worst = max(worst, abs(expected - measured))
    if worst > tolerance:
        raise AnalysisError(
            f"derived chain for {protocol} at n={n} deviates by {worst:.2e}"
        )
    return {
        "protocol": protocol,
        "n_sites": n,
        "derived_states": derived.size,
        "max_abs_error": worst,
    }


def solver_agreement(
    protocol: str,
    n: int,
    ratios: Sequence[float] | None = None,
) -> GridAgreement:
    """Compare the sparse and dense float solvers across a ratio grid.

    Both backends run against the *same* lump-then-solve chain, so any
    disagreement isolates the linear algebra itself -- level reduction
    versus the stacked dense LAPACK solve.  This is the large-n
    counterpart of :func:`grid_agreement`: at n=25-50 the exact Fraction
    sweep is no longer affordable per point, but the two independent
    float factorisations still cross-check each other at full grid
    resolution.
    """
    if ratios is None:
        ratios = [float(ratio) for ratio in paper_grid()]
    points = [float(ratio) for ratio in ratios]
    dense = availability_grid(
        protocol, n, points, prefer_symbolic=False, solver="dense"
    )
    sparse = availability_grid(
        protocol, n, points, prefer_symbolic=False, solver="sparse"
    )
    worst = max(
        abs(a - b) for a, b in zip(dense, sparse)
    )
    return GridAgreement(protocol, n, len(points), worst)


def lumped_chain_agreement(
    protocol: str,
    n: int,
    ratios: Sequence[Fraction] = (Fraction(1, 2), Fraction(1), Fraction(3)),
) -> GridAgreement:
    """Pin the lumped pipeline to exact arithmetic at spot ratios.

    Solves the protocol's lumped chain (:func:`chain_for`) *exactly*
    (Fraction elimination), comparing against the float pipeline value
    at each ratio.  Exact arithmetic on the lumped chain is affordable at
    any n (the chain is O(n) states), so this extends the paper's
    rational-arithmetic discipline to the n=25-50 regime where the
    site-labelled exact sweep cannot follow.  Raises
    :class:`~repro.errors.ChainError` if the protocol has no chain.
    """
    lumped = chain_for(protocol, n)
    worst = 0.0
    for ratio in ratios:
        exact = float(lumped.availability_exact(Fraction(ratio)))
        numeric = availability(protocol, n, float(ratio))
        worst = max(worst, abs(exact - numeric))
    return GridAgreement(protocol, n, len(ratios), worst)
