"""Tests for the availability-measure sensitivity study (experiment A3)."""

import pytest

from repro.analysis import (
    traditional_availability,
    traditional_crossover,
)
from repro.errors import AnalysisError
from repro.markov import availability, chain_for, expected_blocked_fraction


class TestTraditionalMeasure:
    def test_matches_blocked_fraction_complement(self):
        for name in ("dynamic", "dynamic-linear", "hybrid"):
            for ratio in (0.5, 2.0):
                value = traditional_availability(name, 5, ratio)
                blocked = expected_blocked_fraction(chain_for(name, 5), ratio)
                assert value == pytest.approx(1.0 - blocked, abs=1e-12)

    def test_voting_closed_form(self):
        from repro.quorums import majority_availability, uniform_up_probability

        for ratio in (0.5, 2.0):
            assert traditional_availability("voting", 5, ratio) == pytest.approx(
                majority_availability(
                    5, uniform_up_probability(ratio), measure="traditional"
                )
            )

    def test_dominates_the_site_measure(self):
        # Existence of a quorum is necessary for a successful arrival.
        for name in ("voting", "dynamic", "dynamic-linear", "hybrid"):
            for ratio in (0.5, 1.0, 3.0):
                assert traditional_availability(
                    name, 5, ratio
                ) >= availability(name, 5, ratio) - 1e-12

    def test_unknown_protocol_rejected(self):
        with pytest.raises(AnalysisError):
            traditional_availability("primary-copy", 5, 1.0)


class TestMeasureSensitivityFindings:
    def test_theorem2_is_measure_robust(self):
        for n in (3, 5, 8):
            for ratio in (0.2, 1.0, 5.0):
                assert traditional_availability(
                    "hybrid", n, ratio
                ) > traditional_availability("dynamic", n, ratio)

    def test_theorem3_is_not_measure_robust(self):
        # Under the traditional measure dynamic-linear wins at EVERY ratio:
        # its one-site distinguished partitions count fully.  The paper's
        # crossover exists only under the site measure.
        for n in (3, 5, 8):
            for ratio in (0.1, 0.63, 1.0, 2.0, 10.0):
                assert traditional_availability(
                    "dynamic-linear", n, ratio
                ) > traditional_availability("hybrid", n, ratio)

    def test_no_traditional_crossover_for_theorem3_pair(self):
        with pytest.raises(AnalysisError, match="do not cross"):
            traditional_crossover("hybrid", "dynamic-linear", 5)

    def test_dynamic_dominates_voting_under_traditional(self):
        # Another ordering flip: under the traditional measure dynamic
        # voting dominates static voting at EVERY ratio (its quorums are a
        # superset family), where the site measure shows a crossing band.
        for ratio in (0.1, 0.5, 1.0, 2.0, 20.0):
            assert traditional_availability(
                "dynamic", 5, ratio
            ) > traditional_availability("voting", 5, ratio)
        with pytest.raises(AnalysisError):
            traditional_crossover("dynamic", "voting", 5)

    def test_crossover_finder_works_where_a_crossing_exists(self):
        # Optimal-candidate vs hybrid at n=5 flips sign inside (0.5, 1.0)
        # under the traditional measure.
        root = traditional_crossover("optimal-candidate", "hybrid", 5)
        assert 0.5 < root < 1.0
