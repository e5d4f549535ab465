"""The sparse steady-state backend: parity, oracle, routing, and guards.

docs/PERFORMANCE.md "Large-n solvers" contract: level reduction agrees
with the dense stacked solve and with SuperLU, its oracle, to near
machine precision on every registered protocol and on the derived and
class-signature chains, ``solver="auto"`` routes by size, forcing dense
past the threshold is reported once, and nothing ever materializes a
dense matrix past the hard limit.
"""

from fractions import Fraction

import numpy as np
import pytest

import repro.markov.sparse as level_reduction
from repro.errors import ChainError
from repro.markov import (
    LUMP_SIGNATURES,
    SPARSE_THRESHOLD,
    chain_for,
    class_signature,
    derive_chain,
    derive_lumped_chain,
)
from repro.markov.ctmc import _DENSE_MATERIALIZE_LIMIT, ChainSpec
from repro.markov.sparse import sparse_steady_state_grid
from repro.obs.metrics import MetricsRegistry, use
from repro.reassignment import (
    POLICIES,
    GroupConsensus,
    KeepVotes,
    VoteReassignmentProtocol,
    WitnessVotingProtocol,
)
from repro.types import site_names

from .superlu_reference import superlu_steady_state_grid

GRID = [0.1 * i for i in range(1, 41)]
#: Pinned agreement between float solves of the same chain (LAPACK dense,
#: level reduction, SuperLU); observed worst case is ~5e-15.
PARITY_ATOL = 1e-12
#: Ratios for the SuperLU oracle.  Below them SuperLU itself loses
#: digits on the n = 25 witness chain (``test_ill_conditioned_witness_chain``).
ORACLE_RATIOS = [0.25, 0.5, 1.0, 2.0, 4.0, 10.0, 100.0]


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


def witness_chain(policy) -> ChainSpec:
    """n = 25, one witness, lumped by copy/witness class counts."""
    sites = site_names(25)
    classes = {site: "copy" for site in sites} | {sites[-1]: "witness"}
    return derive_lumped_chain(
        WitnessVotingProtocol(sites, sites[-1:], policy()), class_signature(classes)
    )


def reassignment_chain(policy: str) -> ChainSpec:
    """n = 25 unit-vote reassignment, lumped by class counts."""
    sites = site_names(25)
    return derive_lumped_chain(
        VoteReassignmentProtocol(sites, POLICIES[policy]()),
        class_signature(dict.fromkeys(sites, "copy")),
    )


class TestLevelReductionOracles:
    """Level reduction against SuperLU, the exact solve and its invariants."""

    @staticmethod
    def assert_matches_superlu(chain: ChainSpec) -> None:
        ours = sparse_steady_state_grid(chain, ORACLE_RATIOS)
        reference = superlu_steady_state_grid(chain, ORACLE_RATIOS)
        assert abs(ours - reference).max() <= PARITY_ATOL, chain.name

    @pytest.mark.parametrize("protocol", sorted(LUMP_SIGNATURES))
    @pytest.mark.parametrize("n", [3, 5, 7, 25, 50])
    def test_lumped_chains(self, protocol, n):
        self.assert_matches_superlu(chain_for(protocol, n))

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_section7_derived_chains(self, policy):
        protocol = VoteReassignmentProtocol(site_names(5), POLICIES[policy]())
        self.assert_matches_superlu(derive_chain(protocol))

    @pytest.mark.parametrize("policy", [KeepVotes, GroupConsensus])
    def test_witness_class_chains_at_n25(self, policy):
        self.assert_matches_superlu(witness_chain(policy))

    @pytest.mark.parametrize("policy", ["keep", "group-consensus"])
    def test_reassignment_class_chains_at_n25(self, policy):
        self.assert_matches_superlu(reassignment_chain(policy))

    def test_ill_conditioned_witness_chain(self):
        # At ratio 1/100 the normalised-row systems lose every digit on
        # this chain (SuperLU is off by 0.16, dense LAPACK by 1.9), while
        # level reduction, which never subtracts on a diagonal, holds the
        # exact solve to 1e-16.
        chain = witness_chain(KeepVotes)
        ratio = Fraction(1, 100)
        exact = chain.steady_state_exact(ratio)
        ours = sparse_steady_state_grid(chain, [float(ratio)])[0]
        assert max(
            abs(value - float(exact[state])) for state, value in zip(chain.states, ours)
        ) <= PARITY_ATOL

    def test_birth_death_chain_past_the_threshold(self):
        self.assert_matches_superlu(birth_death_chain(SPARSE_THRESHOLD + 1))

    @pytest.mark.parametrize("protocol", sorted(LUMP_SIGNATURES))
    def test_extreme_ratios_stay_finite_at_n50(self, protocol):
        # The sweep starts at the all-up root and rescales each level by a
        # power of two; unscaled, it overflows at 1e-9, where the mass
        # sits 50 levels from the root.
        grid = sparse_steady_state_grid(chain_for(protocol, 50), [1e-9, 1e9])
        assert np.isfinite(grid).all()
        assert grid.min() >= 0.0
        assert abs(grid.sum(axis=1) - 1.0).max() <= PARITY_ATOL

    def test_grid_in_passes_matches_one_pass(self, monkeypatch):
        chain = chain_for("dynamic-linear", 50)
        whole = sparse_steady_state_grid(chain, GRID)
        # A budget below one ratio's blocks leaves one ratio per pass.
        monkeypatch.setattr(level_reduction, "_DENSE_GRID_BUDGET", 1)
        assert level_reduction._batch(level_reduction._levels(chain)) == 1
        np.testing.assert_array_equal(sparse_steady_state_grid(chain, GRID), whole)


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

    def test_bad_grids_rejected_before_routing(self):
        # ChainSpec checks the grid once, for both backends.
        chain = birth_death_chain(SPARSE_THRESHOLD + 1)
        for grid, message in (([], "empty"), ([1.0, -2.0], "positive")):
            with pytest.raises(ChainError, match=message):
                chain.steady_state_grid(grid, solver="sparse")
        with pytest.raises(ChainError, match="positive"):
            chain.steady_state(0.0, solver="sparse")


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
