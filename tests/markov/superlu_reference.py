"""SuperLU on the assembled balance system: the level-reduction oracle.

The large-chain backend before :mod:`repro.markov.sparse` solved by level
reduction.  It assembles the transposed generator ``A = Q^T`` from the
chain's arc index, replaces the last balance equation by the
normalisation row of ones (as the dense path does) and solves each ratio
with scipy's sparse LU.  It shares no step with level reduction but the
arc index, so agreement checks the levels, the elimination and the sweep.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from repro.markov import ChainSpec


def superlu_steady_state_grid(
    spec: ChainSpec, ratios: "np.typing.ArrayLike", lam: float = 1.0
) -> np.ndarray:
    """``(K, size)`` stationary distributions, one sparse LU per ratio."""
    arc_rows, arc_cols, fails, reps, _ = spec._arc_index_arrays()
    size = spec.size
    keep = arc_cols != size - 1
    diagonal = np.arange(size - 1)
    rows = np.concatenate(
        [arc_cols[keep], diagonal, np.full(size, size - 1, dtype=np.intp)]
    )
    cols = np.concatenate([arc_rows[keep], diagonal, np.arange(size)])
    outflow_fails = np.bincount(arc_rows, weights=fails, minlength=size)
    outflow_reps = np.bincount(arc_rows, weights=reps, minlength=size)
    lam_coeff = np.concatenate([fails[keep], -outflow_fails[:-1], np.zeros(size)])
    mu_coeff = np.concatenate([reps[keep], -outflow_reps[:-1], np.zeros(size)])
    const = np.concatenate([np.zeros(int(keep.sum()) + size - 1), np.ones(size)])
    b = np.zeros(size)
    b[-1] = 1.0
    grid = np.asarray(ratios, dtype=np.float64)
    out = np.empty((grid.size, size))
    for k, ratio in enumerate(grid):
        data = lam_coeff * lam + mu_coeff * (ratio * lam) + const
        matrix = scipy.sparse.csc_matrix((data, (rows, cols)), shape=(size, size))
        out[k] = scipy.sparse.linalg.spsolve(matrix, b)
    return out
