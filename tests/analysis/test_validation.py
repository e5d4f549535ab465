"""Tests for the validation harnesses (experiments E8, E9)."""

from fractions import Fraction

import pytest

from repro.analysis import (
    derived_chain_agreement,
    grid_agreement,
    lumped_chain_agreement,
    montecarlo_agreement,
    paper_grid,
    solver_agreement,
)
from repro.errors import AnalysisError


class TestPaperGrid:
    def test_full_grid_has_200_points(self):
        grid = paper_grid()
        assert len(grid) == 200
        assert grid[0] == Fraction(1, 10)
        assert grid[-1] == Fraction(20)

    def test_custom_grid(self):
        grid = paper_grid(Fraction(1), Fraction(2), Fraction(1, 2))
        assert grid == [Fraction(1), Fraction(3, 2), Fraction(2)]


class TestGridAgreement:
    @pytest.mark.parametrize("name", ["voting", "dynamic", "hybrid"])
    def test_float_and_exact_paths_agree(self, name):
        ratios = paper_grid(Fraction(1, 2), Fraction(5), Fraction(1, 2))
        result = grid_agreement(name, 5, ratios)
        assert result.ok()
        assert result.points == len(ratios)

    def test_max_error_reported(self):
        result = grid_agreement("dynamic-linear", 4, [Fraction(1)])
        assert result.max_abs_error < 1e-12


class TestMonteCarloAgreement:
    def test_agreement_report(self):
        report = montecarlo_agreement(
            "dynamic", 4, 1.0, replicates=4, events=6_000, seed=7
        )
        assert abs(report["analytic"] - report["montecarlo"]) < 0.02

    def test_disagreement_raises(self, monkeypatch):
        # Force a chain/protocol mismatch by lying about the analytic
        # value: the harness must raise rather than report agreement.
        from repro.analysis import validation
        from repro.errors import AnalysisError

        monkeypatch.setattr(
            validation, "availability", lambda name, n, ratio: 0.999
        )
        with pytest.raises(AnalysisError, match="disagrees"):
            montecarlo_agreement(
                "dynamic", 4, 1.0, replicates=4, events=4_000, seed=7
            )

    def test_band_rejects_distant_values(self):
        from repro.sim import MonteCarloResult

        result = MonteCarloResult("x", 3, 1.0, 0.5, 0.001, 4, 100)
        assert not result.agrees_with(0.9)
        assert result.agrees_with(0.5005)


class TestDerivedChainAgreement:
    @pytest.mark.parametrize("name", ["dynamic", "dynamic-linear", "hybrid"])
    def test_derived_matches_hand_built(self, name):
        report = derived_chain_agreement(name, 4)
        assert report["max_abs_error"] < 1e-10
        assert report["derived_states"] > 0

    def test_modified_hybrid_agreement(self):
        report = derived_chain_agreement("modified-hybrid", 4)
        assert report["max_abs_error"] < 1e-10


class TestLargeNValidation:
    def test_solver_agreement_at_n25(self):
        result = solver_agreement("dynamic", 25, [0.5, 1.0, 2.0, 8.0])
        assert result.n_sites == 25
        assert result.points == 4
        assert result.ok(1e-12)

    def test_lumped_chain_agreement_at_n25(self):
        result = lumped_chain_agreement("hybrid", 25)
        assert result.n_sites == 25
        assert result.ok(1e-12)

    def test_lumped_chain_agreement_needs_a_signature(self):
        with pytest.raises(AnalysisError, match="no chain for 'primary-copy'"):
            lumped_chain_agreement("primary-copy", 5)

    def test_solver_agreement_defaults_to_the_paper_grid(self):
        result = solver_agreement("voting", 25)
        assert result.points == 200
        assert result.ok(1e-12)
