"""Experiment layer: tables, figures, crossovers, and validation harnesses.

Every table and figure of the paper maps to a generator here (see
DESIGN.md's experiment index); the benchmarks and the CLI are thin wrappers
over these functions.
"""

from .artifact import ARTIFACT_VERSION, collect_results, write_artifact
from .crossover import (
    PAPER_CROSSOVERS,
    CrossoverResult,
    certified_crossover,
    numeric_crossover,
    uniqueness_certificate,
)
from .figures import (
    FIGURE_PROTOCOLS,
    FigureSeries,
    figure3_series,
    figure4_series,
    figure_series,
)
from .proof import Theorem3Proof, theorem3_proof
from .report import render_series, render_table
from .sensitivity import (
    traditional_availability,
    traditional_availability_grid,
    traditional_crossover,
)
from .tables import (
    Theorem3Row,
    comparison_table,
    render_theorem3,
    theorem2_check,
    theorem3_table,
)
from .validation import (
    GridAgreement,
    derived_chain_agreement,
    grid_agreement,
    lumped_chain_agreement,
    montecarlo_agreement,
    paper_grid,
    solver_agreement,
)

__all__ = [
    "collect_results",
    "write_artifact",
    "ARTIFACT_VERSION",
    "PAPER_CROSSOVERS",
    "CrossoverResult",
    "numeric_crossover",
    "certified_crossover",
    "uniqueness_certificate",
    "Theorem3Proof",
    "theorem3_proof",
    "FigureSeries",
    "FIGURE_PROTOCOLS",
    "figure_series",
    "figure3_series",
    "figure4_series",
    "render_table",
    "render_series",
    "traditional_availability",
    "traditional_availability_grid",
    "traditional_crossover",
    "Theorem3Row",
    "theorem3_table",
    "render_theorem3",
    "theorem2_check",
    "comparison_table",
    "GridAgreement",
    "grid_agreement",
    "montecarlo_agreement",
    "derived_chain_agreement",
    "lumped_chain_agreement",
    "solver_agreement",
    "paper_grid",
]
