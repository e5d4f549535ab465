"""Tests for the table and figure generators (experiments E4-E7)."""

from fractions import Fraction

import pytest

from repro.analysis import (
    comparison_table,
    figure3_series,
    figure4_series,
    figure_series,
    render_series,
    render_table,
    render_theorem3,
    theorem2_check,
    theorem3_table,
)
from repro.errors import AnalysisError

#: Theorem 3's exactly verified brackets (low, high), n = 3..20, as first
#: computed with the dense exact solver.  Any change to them is a change
#: to the reproduced table.
THEOREM3_BRACKETS = {
    3: (Fraction(102, 125), Fraction(817, 1000)),
    4: (Fraction(133, 200), Fraction(333, 500)),
    5: (Fraction(629, 1000), Fraction(63, 100)),
    6: (Fraction(633, 1000), Fraction(317, 500)),
    7: (Fraction(659, 1000), Fraction(33, 50)),
    8: (Fraction(699, 1000), Fraction(7, 10)),
    9: (Fraction(187, 250), Fraction(749, 1000)),
    10: (Fraction(401, 500), Fraction(803, 1000)),
    11: (Fraction(429, 500), Fraction(859, 1000)),
    12: (Fraction(911, 1000), Fraction(114, 125)),
    13: (Fraction(24, 25), Fraction(961, 1000)),
    14: (Fraction(251, 250), Fraction(201, 200)),
    15: (Fraction(1043, 1000), Fraction(261, 250)),
    16: (Fraction(1077, 1000), Fraction(539, 500)),
    17: (Fraction(277, 250), Fraction(1109, 1000)),
    18: (Fraction(227, 200), Fraction(142, 125)),
    19: (Fraction(1159, 1000), Fraction(29, 25)),
    20: (Fraction(1181, 1000), Fraction(591, 500)),
}


class TestTheorem3Table:
    def test_all_rows_pinned_verified_and_match_paper(self):
        rows = theorem3_table()
        assert [row.n_sites for row in rows] == list(range(3, 21))
        for row in rows:
            bracket = (row.crossover.low, row.crossover.high)
            assert bracket == THEOREM3_BRACKETS[row.n_sites], row.n_sites
            assert row.matches and row.crossover.verified, row.n_sites

    def test_out_of_range_n_rejected(self):
        with pytest.raises(AnalysisError):
            theorem3_table(n_values=(25,))

    def test_rendering_contains_all_rows(self):
        rows = theorem3_table(n_values=(3, 4))
        text = render_theorem3(rows)
        assert "0.82" in text and "0.67" in text
        assert "yes" in text


class TestTheorem2:
    def test_grid_passes(self):
        rows = theorem2_check(n_values=(3, 5, 8), ratios=(0.2, 1.0, 5.0))
        assert len(rows) == 9
        for _, _, hybrid, dynamic in rows:
            assert hybrid > dynamic


class TestFigures:
    def test_figure3_grid(self):
        series = figure3_series(steps=8)
        assert series.ratios[0] == pytest.approx(0.1)
        assert series.ratios[-1] == pytest.approx(2.0)
        assert set(series.curves) == {"voting", "dynamic", "dynamic-linear", "hybrid"}

    def test_figure4_grid(self):
        series = figure4_series(steps=5)
        assert series.ratios[0] == pytest.approx(2.0)
        assert series.ratios[-1] == pytest.approx(10.0)

    def test_figure3_shape_small_ratios(self):
        # At the left edge dynamic-linear leads the hybrid; by ratio 2.0
        # the hybrid leads (the 0.63 crossover sits inside the figure).
        series = figure3_series(steps=20)
        hybrid = series.curve("hybrid")
        linear = series.curve("dynamic-linear")
        assert linear[0] > hybrid[0]
        assert hybrid[-1] > linear[-1]

    def test_figure4_shape_big_ratios(self):
        # Fig. 4's whole range is beyond the crossover: hybrid leads
        # everywhere and voting trails everywhere.
        series = figure4_series(steps=9)
        hybrid, linear, voting = (
            series.curve("hybrid"), series.curve("dynamic-linear"), series.curve("voting")
        )
        for h, l, v in zip(hybrid, linear, voting):
            assert h > l > v

    def test_normalised_values_are_fractions_of_best(self):
        series = figure4_series(steps=5)
        for curve in series.curves.values():
            assert all(0.0 < value <= 1.0 for value in curve)

    def test_curves_approach_one_at_large_ratios(self):
        series = figure_series("tail", 5, 50.0, 100.0, 3)
        for curve in series.curves.values():
            assert curve[-1] > 0.99

    def test_unknown_curve_rejected(self):
        with pytest.raises(AnalysisError):
            figure3_series(steps=4).curve("paxos")

    def test_too_few_steps_rejected(self):
        with pytest.raises(AnalysisError):
            figure_series("x", 5, 1.0, 2.0, 1)

    def test_render_is_tabular(self):
        text = figure3_series(steps=4).render()
        assert "mu/lambda" in text
        assert "hybrid" in text


class TestRenderers:
    def test_render_table_alignment(self):
        text = render_table(["a", "bbbb"], [[1, 2.0], [30, 4.5]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "2.0000" in text

    def test_render_table_with_title(self):
        assert render_table(["x"], [[1]], title="T").startswith("T")

    def test_render_series(self):
        text = render_series("r", [1.0, 2.0], {"s": [0.1, 0.2]})
        assert "0.1000" in text

    def test_comparison_table_contains_all_protocols(self):
        text = comparison_table(5, [1.0, 2.0])
        for name in ("voting", "dynamic", "dynamic-linear", "hybrid"):
            assert name in text
