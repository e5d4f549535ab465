"""Table generators: the Theorem 3 crossover table and comparisons.

:func:`theorem3_table` regenerates the paper's central result table --
the crossover ratio above which the hybrid algorithm beats dynamic-linear,
for 3 to 20 sites -- with each row carrying its exact verification bracket
and the published value for side-by-side comparison.

:func:`theorem2_check` sweeps a (n, ratio) grid asserting availability of
the hybrid algorithm strictly exceeds dynamic voting (Theorem 2), and
:func:`comparison_table` renders an availability matrix for any protocol
set at fixed *n*.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..errors import AnalysisError
from ..markov import availability
from .crossover import PAPER_CROSSOVERS, CrossoverResult, certified_crossover
from .report import render_table

__all__ = [
    "Theorem3Row",
    "theorem3_table",
    "render_theorem3",
    "theorem2_check",
    "comparison_table",
]


@dataclass(frozen=True, slots=True)
class Theorem3Row:
    """One row of the regenerated Theorem 3 table."""

    n_sites: int
    crossover: CrossoverResult
    paper_value: float

    @property
    def measured(self) -> float:
        """Our crossover (midpoint of the exact bracket)."""
        return self.crossover.value

    @property
    def matches(self) -> bool:
        """Within one published ulp (the paper truncates to two decimals)."""
        return abs(self.measured - self.paper_value) <= 0.011


def theorem3_table(
    n_values: Sequence[int] = tuple(range(3, 21)), decimals: int = 3
) -> list[Theorem3Row]:
    """Regenerate Theorem 3: hybrid/dynamic-linear crossovers, verified."""
    rows = []
    for n in n_values:
        if n not in PAPER_CROSSOVERS:
            raise AnalysisError(f"paper's table covers n=3..20 only, got {n}")
        result = certified_crossover("hybrid", "dynamic-linear", n, decimals)
        rows.append(Theorem3Row(n, result, PAPER_CROSSOVERS[n]))
    return rows


def render_theorem3(rows: Sequence[Theorem3Row]) -> str:
    """ASCII rendering mirroring the theorem's published list."""
    table_rows = [
        [
            row.n_sites,
            f"{row.measured:.3f}",
            f"[{float(row.crossover.low):.3f}, {float(row.crossover.high):.3f}]",
            f"{row.paper_value:.2f}",
            "yes" if row.matches else "NO",
        ]
        for row in rows
    ]
    return render_table(
        ["n", "crossover", "exact bracket", "paper", "match"],
        table_rows,
        title="Theorem 3: hybrid > dynamic-linear iff mu/lambda >= c(n)",
    )


def theorem2_check(
    n_values: Sequence[int] = (3, 4, 5, 7, 10, 15, 20),
    ratios: Sequence[float] = (0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0),
) -> list[tuple[int, float, float, float]]:
    """Verify Theorem 2 on a grid: hybrid availability > dynamic voting.

    Returns ``(n, ratio, hybrid, dynamic)`` rows; raises
    :class:`AnalysisError` on any violation so harnesses fail loudly.
    """
    from fractions import Fraction

    from ..markov import availability_exact

    rows = []
    for n in n_values:
        for ratio in ratios:
            h = availability("hybrid", n, ratio)
            d = availability("dynamic", n, ratio)
            if h <= d:
                # At large n and large ratios the margin sinks below float
                # epsilon; re-decide with exact rational arithmetic.
                exact_ratio = Fraction(ratio).limit_denominator(10**6)
                h_exact = availability_exact("hybrid", n, exact_ratio)
                d_exact = availability_exact("dynamic", n, exact_ratio)
                if h_exact <= d_exact:
                    raise AnalysisError(
                        f"Theorem 2 violated at n={n}, ratio={ratio}: "
                        f"hybrid={h_exact} <= dynamic={d_exact}"
                    )
            rows.append((n, ratio, h, d))
    return rows


def comparison_table(
    n: int,
    ratios: Sequence[float],
    protocols: Sequence[str] = ("voting", "dynamic", "dynamic-linear", "hybrid"),
) -> str:
    """Availability matrix (protocol columns, ratio rows) as text."""
    rows = []
    for ratio in ratios:
        rows.append(
            [f"{ratio:g}"] + [availability(p, n, ratio) for p in protocols]
        )
    return render_table(
        ["mu/lambda", *protocols],
        rows,
        title=f"Site availability, n={n}",
    )
