"""Tests for crossover location and exact certification (Theorem 3 core)."""

from fractions import Fraction

import pytest

from repro.analysis import (
    PAPER_CROSSOVERS,
    certified_crossover,
    numeric_crossover,
    uniqueness_certificate,
)
from repro.errors import AnalysisError
from repro.markov import availability_exact


class TestNumericCrossover:
    def test_n5_matches_paper(self):
        root = numeric_crossover("hybrid", "dynamic-linear", 5)
        assert root == pytest.approx(0.63, abs=0.011)

    def test_no_crossing_raises(self):
        # hybrid > dynamic everywhere (Theorem 2): no sign change.
        with pytest.raises(AnalysisError):
            numeric_crossover("hybrid", "dynamic", 5)

    def test_voting_crosses_dynamic_at_five_sites(self):
        # At five sites dynamic voting overtakes static voting at larger
        # ratios (visible in the Figs. 3-4 data).
        root = numeric_crossover("dynamic", "voting", 5)
        assert 0.1 < root < 5.0


class TestCertifiedCrossover:
    def test_bracket_is_exactly_verified(self):
        result = certified_crossover("hybrid", "dynamic-linear", 5)
        assert result.verified
        low_diff = availability_exact("hybrid", 5, result.low) - availability_exact(
            "dynamic-linear", 5, result.low
        )
        high_diff = availability_exact("hybrid", 5, result.high) - availability_exact(
            "dynamic-linear", 5, result.high
        )
        assert low_diff < 0 < high_diff

    def test_bracket_width_matches_decimals(self):
        result = certified_crossover("hybrid", "dynamic-linear", 4, decimals=2)
        assert result.high - result.low <= Fraction(2, 100)

    def test_downward_crossing_detected(self):
        # dynamic-linear over hybrid crosses downward; the API demands the
        # ascending orientation.
        with pytest.raises(AnalysisError, match="swap"):
            certified_crossover("dynamic-linear", "hybrid", 5)

    def test_agrees_with_paper_helper(self):
        result = certified_crossover("hybrid", "dynamic-linear", 3)
        assert result.agrees_with_paper()

    def test_agrees_with_paper_rejects_unknown_n(self):
        result = certified_crossover("hybrid", "dynamic-linear", 5)
        object.__setattr__(result, "n_sites", 99)
        with pytest.raises(AnalysisError):
            result.agrees_with_paper()


class TestPaperTableSpotChecks:
    """Certify a representative sample here (the benchmark does all 18)."""

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
    def test_crossover_matches_paper(self, n):
        result = certified_crossover("hybrid", "dynamic-linear", n)
        assert result.agrees_with_paper(), (n, result.value, PAPER_CROSSOVERS[n])


class TestUniqueness:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_single_positive_crossing(self, n):
        certificate = uniqueness_certificate("hybrid", "dynamic-linear", n)
        assert certificate["positive_roots_sturm"] == 1
        assert certificate["unique"]

    def test_descartes_count_is_one_at_n5(self):
        # The paper's exact argument: one coefficient sign change.
        certificate = uniqueness_certificate("hybrid", "dynamic-linear", 5)
        assert certificate["descartes_sign_changes"] == 1
