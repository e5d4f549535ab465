"""The sparse steady-state backend: parity, routing, and guards.

docs/PERFORMANCE.md "Large-n solvers" contract: the sparse path agrees
with the dense stacked solve to near machine precision on every
registered protocol, ``solver="auto"`` routes by size, forcing dense
past the threshold is reported once, and nothing ever materializes a
dense matrix past the hard limit.
"""

from fractions import Fraction

import pytest

from repro.errors import ChainError
from repro.markov import (
    LUMP_SIGNATURES,
    SPARSE_THRESHOLD,
    chain_for,
    sparse_steady_state,
    sparse_steady_state_grid,
)
from repro.markov.ctmc import _DENSE_MATERIALIZE_LIMIT, ChainSpec
from repro.obs.metrics import MetricsRegistry, use

GRID = [0.1 * i for i in range(1, 41)]
#: Pinned agreement between the two float factorizations (LAPACK dense
#: vs SuperLU sparse); observed worst-case is ~1e-15 at n=7.
PARITY_ATOL = 1e-12


def birth_death_chain(size: int) -> ChainSpec:
    """A size-state birth-death chain, handy for crossing the threshold."""
    arcs = {}
    for i in range(size - 1):
        arcs[(i, i + 1)] = (1, 0)
        arcs[(i + 1, i)] = (0, 1)
    weights = {0: Fraction(1)}
    return ChainSpec.from_indexed_arcs(
        f"birth-death[{size}]", range(size), arcs, weights
    )


class TestSparseDenseParity:
    @pytest.mark.parametrize("protocol", sorted(LUMP_SIGNATURES))
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_steady_state_matches_dense(self, protocol, n):
        chain = chain_for(protocol, n)
        for ratio in (0.25, 1.0, 4.0):
            dense = chain.steady_state(ratio, solver="dense")
            sparse = chain.steady_state(ratio, solver="sparse")
            assert max(
                abs(dense[state] - sparse[state]) for state in chain.states
            ) <= PARITY_ATOL, (protocol, n, ratio)

    @pytest.mark.parametrize("protocol", sorted(LUMP_SIGNATURES))
    def test_grid_matches_dense(self, protocol):
        chain = chain_for(protocol, 5)
        dense = chain.steady_state_grid(GRID, solver="dense")
        sparse = chain.steady_state_grid(GRID, solver="sparse")
        assert abs(dense - sparse).max() <= PARITY_ATOL

    def test_gmres_matches_direct(self):
        chain = chain_for("hybrid", 7)
        direct = sparse_steady_state_grid(chain, GRID, method="direct")
        gmres = sparse_steady_state_grid(chain, GRID, method="gmres")
        assert abs(direct - gmres).max() <= 1e-9

    def test_availability_solver_knob(self):
        chain = chain_for("dynamic", 5)
        dense = chain.availability(2.0, solver="dense")
        sparse = chain.availability(2.0, solver="sparse")
        assert sparse == pytest.approx(dense, abs=PARITY_ATOL)

    def test_rows_are_distributions(self):
        chain = birth_death_chain(300)
        grid = sparse_steady_state_grid(chain, GRID)
        assert grid.shape == (len(GRID), 300)
        assert abs(grid.sum(axis=1) - 1.0).max() <= 1e-9
        assert grid.min() >= -1e-12


class TestAutoRouting:
    def test_small_chain_stays_dense(self):
        chain = chain_for("hybrid", 5)
        registry = MetricsRegistry()
        with use(registry):
            chain.steady_state(1.0)
        snapshot = registry.snapshot()
        assert "markov.solve.numeric" in snapshot
        assert "markov.solve.sparse" not in snapshot

    def test_large_chain_routes_sparse(self):
        chain = birth_death_chain(SPARSE_THRESHOLD + 1)
        registry = MetricsRegistry()
        with use(registry):
            chain.steady_state(1.0)
        snapshot = registry.snapshot()
        assert snapshot["markov.solve.sparse"]["value"] == 1
        assert "markov.solve.numeric" not in snapshot

    def test_large_grid_routes_sparse(self):
        # Far below the size threshold, but the grid budget
        # (points x size^2 dense cells) still tips auto to sparse.
        chain = birth_death_chain(100)
        points = [1.0] * 900
        registry = MetricsRegistry()
        with use(registry):
            chain.steady_state_grid(points)
        assert registry.snapshot()["markov.solve.sparse"]["value"] == 1

    def test_unknown_solver_rejected(self):
        chain = chain_for("voting", 3)
        with pytest.raises(ChainError, match="unknown solver"):
            chain.steady_state(1.0, solver="cholesky")

    def test_unknown_sparse_method_rejected(self):
        chain = chain_for("voting", 3)
        with pytest.raises(ChainError, match="unknown sparse method"):
            sparse_steady_state(chain, 1.0, method="jacobi")


class TestDenseGuards:
    def test_forced_dense_past_threshold_reported_once(self):
        chain = birth_death_chain(SPARSE_THRESHOLD + 1)
        registry = MetricsRegistry()
        with use(registry):
            chain.steady_state(1.0, solver="dense")
            chain.steady_state(2.0, solver="dense")
        assert registry.snapshot()["markov.solve.dense_oversize"]["value"] == 1

    def test_forced_dense_past_materialize_limit_raises(self):
        chain = birth_death_chain(_DENSE_MATERIALIZE_LIMIT + 1)
        with pytest.raises(ChainError, match="dense"):
            chain.steady_state(1.0, solver="dense")
        # ... but auto and sparse still solve it.
        pi = chain.steady_state(1.0)
        assert sum(pi.values()) == pytest.approx(1.0, abs=1e-9)

    def test_generator_matrix_guarded(self):
        chain = birth_death_chain(_DENSE_MATERIALIZE_LIMIT + 1)
        with pytest.raises(ChainError, match="generator"):
            chain.generator_matrix(1.0, 1.0)

    def test_generator_matrix_small_still_works(self):
        chain = chain_for("voting", 3)
        q = chain.generator_matrix(1.0, 2.0)
        assert q.shape == (chain.size, chain.size)
        assert abs(q.sum(axis=1)).max() <= 1e-12
