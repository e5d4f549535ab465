"""Experiment E8: the paper's 3600-point software cross-validation.

The paper recomputed both availabilities numerically for mu/lambda from
0.1 to 20.0 at intervals of 0.1 "through a different set of software" to
guard the Theorem 3 proof against bugs.  We run the same grid (200 points
per protocol at n = 5) comparing two genuinely independent solvers: the
float path (numpy linear algebra) against the exact path (Fraction
Gaussian elimination), and additionally re-verify the Theorem 3 ordering
at every grid point.

The vectorized Monte-Carlo backend extends the cross-check to cluster
sizes the scalar engine cannot sweep in CI time: at n = 7 and n = 9 the
*protocol implementations themselves* (run through the numpy kernels)
are pitted against the analytic chains.

The lump-then-solve pipeline extends the discipline to n = 25-50: the
sparse and dense float factorizations cross-check each other over the
full grid (``solver_agreement``), and exact Fraction elimination of the
lumped chain pins the float pipeline at spot ratios
(``lumped_chain_agreement``) -- rational arithmetic stays affordable at
any n because the lumped chains are O(n) blocks.
"""

from fractions import Fraction

from repro.analysis import (
    grid_agreement,
    lumped_chain_agreement,
    montecarlo_agreement,
    paper_grid,
    solver_agreement,
)
from repro.markov import availability_exact


def run_grid():
    grid = paper_grid()  # 0.1 .. 20.0 step 0.1
    return {
        name: grid_agreement(name, 5, grid)
        for name in ("voting", "dynamic", "dynamic-linear", "hybrid")
    }


def test_validation_grid(benchmark):
    results = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    print()
    for name, result in results.items():
        print(
            f"  {name:15s}: {result.points} points, "
            f"max |float - exact| = {result.max_abs_error:.2e}"
        )
        assert result.ok(1e-9), name
    total = sum(r.points for r in results.values())
    assert total == 800  # 4 protocols x 200 grid points


def test_vectorized_montecarlo_validation_at_large_n(benchmark):
    """The protocol code agrees with the chains beyond the scalar range.

    ``montecarlo_agreement`` raises on any >4-sigma deviation, so simply
    completing is the assertion; the vectorized backend makes n = 9
    affordable where the scalar oracle would dominate the CI budget.
    """

    def sweep():
        reports = []
        for protocol, n, ratio in (
            ("hybrid", 7, 1.0),
            ("dynamic-linear", 7, 2.0),
            ("dynamic", 9, 1.0),
            ("hybrid", 9, 0.5),
        ):
            reports.append(
                montecarlo_agreement(
                    protocol, n, ratio,
                    replicates=16, events=6_000, seed=2026,
                    backend="vectorized",
                )
            )
        return reports

    reports = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for report in reports:
        print(
            f"  {report['protocol']:15s} n={report['n_sites']} "
            f"ratio={report['ratio']:.1f}: analytic={report['analytic']:.4f} "
            f"mc={report['montecarlo']:.4f} +/- {report['stderr']:.4f}"
        )
    assert len(reports) == 4
    assert all(report["backend"] == "vectorized" for report in reports)


def test_large_n_solver_cross_validation(benchmark):
    """Sparse vs dense factorizations over the full paper grid at n=25.

    Both run the same lumped chain, so any disagreement isolates the
    linear algebra: level reduction against the stacked dense LAPACK
    solve.  This is the n=25 counterpart of ``run_grid`` above,
    where per-point Fraction elimination of the site-labelled chain is
    no longer affordable.
    """

    def sweep():
        return {
            name: solver_agreement(name, 25)
            for name in ("voting", "dynamic", "hybrid", "optimal-candidate")
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for name, result in results.items():
        print(
            f"  {name:17s}: n={result.n_sites} {result.points} points, "
            f"max |dense - sparse| = {result.max_abs_error:.2e}"
        )
        assert result.ok(1e-12), name
    assert sum(r.points for r in results.values()) == 800


def test_large_n_exact_spot_checks(benchmark):
    """Fraction elimination of the lumped chains pins the float path.

    The paper's rational-arithmetic discipline, carried to n=25 and
    n=50: the lumped state spaces stay O(n) blocks, so exact Gaussian
    elimination remains affordable where the 2^n site-labelled sweep is
    out of reach.
    """

    def sweep():
        checks = []
        for protocol, n in (
            ("dynamic", 25),
            ("hybrid", 25),
            ("modified-hybrid", 25),
            ("dynamic", 50),
        ):
            checks.append(lumped_chain_agreement(protocol, n))
        return checks

    checks = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for result in checks:
        print(
            f"  {result.protocol:17s}: n={result.n_sites} "
            f"{result.points} exact ratios, "
            f"max |float - exact| = {result.max_abs_error:.2e}"
        )
        assert result.ok(1e-12), result.protocol


def test_theorem3_ordering_on_the_grid(benchmark):
    def orderings():
        flips = []
        crossover = Fraction(629, 1000)  # certified bracket low for n=5
        for ratio in paper_grid():
            hybrid = availability_exact("hybrid", 5, ratio)
            linear = availability_exact("dynamic-linear", 5, ratio)
            if (hybrid > linear) != (ratio > crossover):
                flips.append(ratio)
        return flips

    flips = benchmark.pedantic(orderings, rounds=1, iterations=1)
    # No grid point may contradict the certified crossover at 0.629-0.630
    # (the grid has no point inside the bracket, so zero exceptions).
    assert flips == []
