"""Level-reduction steady-state backend for large chains.

The paper's availability model (Section VI's Markov analysis, validated
by the 3600-point grid check) needs only small chains for its published
tables; carrying the same curves to n=25-50 sites does not.  The dense
path in :mod:`repro.markov.ctmc` materialises the full ``(K, n, n)``
generator tensor, which stops being reasonable around a few hundred
states -- exactly where the large-n availability questions live (lumped
witness chains, site-labelled validation chains).  This module solves
the same balance equations ``pi Q = 0, sum(pi) = 1`` level by level, with
numpy alone:

* a breadth-first search from state 0 over the undirected arc graph
  splits the states into levels ``L_0 = {0}, L_1, ..., L_m``.  An arc
  joins a level to itself or to an adjacent level, so the generator is
  block-tridiagonal: ``A_k`` within level *k*, ``U_k`` from *k* up to
  *k+1*, ``D_k`` from *k* down to *k-1*.  Each lumped chain of the paper
  moves one site per transition, so at n=50 its 51 levels hold at most 4
  states each;
* upward elimination folds the levels above *k* into ``S_k``: ``S_m =
  A_m``, ``R_k = U_{k-1} (-S_k)^-1`` and ``S_{k-1} = A_{k-1} + R_k D_k``.
  ``-S_k`` is a nonsingular M-matrix (every state of ``L_k`` can leave
  downward), so ``R_k`` and ``R_k D_k`` are sums of nonnegative terms.
  The diagonal of ``S_k`` is set from its row sums, ``S_k 1 = -D_k 1``,
  as in Grassmann-Taksar-Heyman elimination, so no diagonal is the
  difference of two large rates;
* the sweep back down sets ``pi_0 = 1`` at the root, ``pi_k = pi_{k-1}
  R_k``, and normalises.  Each level is rescaled by a power of two, which
  is exact, so the sweep neither overflows nor underflows at extreme
  ratios.

A ratio costs about ``sum_k b_k^3`` flops, where ``b_k`` is the size of
level *k*: linear in the number of levels, cubic in their width.  Every
rate is ``a*lambda + b*mu``, so the levels and the (lambda, mu)
coefficients of every block are ratio-independent: they are computed once
per chain and cached, and the K points of a grid go through one batched
``np.linalg.solve`` per level, in as few passes as keep each pass's blocks
within the dense path's grid budget.  SuperLU on the assembled sparse system,
the backend this replaced, is kept in ``tests/markov/superlu_reference.py``
as its oracle.

Telemetry: solves land on the shared ``markov.solve.*`` series (mode
``sparse``) plus the ``markov.solve.sparse`` hotpath wall timer
(docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..obs.profile import hotpath
from .ctmc import _DENSE_GRID_BUDGET

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .ctmc import ChainSpec

__all__ = ["sparse_steady_state", "sparse_steady_state_grid"]


class Block(NamedTuple):
    """The arcs of one block: their positions in it and their multiplicities."""

    rows: np.ndarray
    cols: np.ndarray
    fails: np.ndarray
    reps: np.ndarray
    shape: tuple[int, int]


class Level(NamedTuple):
    """One breadth-first level: its states and the arcs leaving them.

    ``within`` is ``A_k`` off the diagonal, ``up`` is ``U_k`` (empty at the
    top level) and ``down`` is ``D_k`` (empty at the root).
    """

    states: np.ndarray
    within: Block
    up: Block
    down: Block


def _depths(size: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Breadth-first distance of every state from state 0, arcs undirected."""
    depth = np.full(size, -1, dtype=np.intp)
    depth[0] = 0
    frontier = np.zeros(size, dtype=bool)
    frontier[0] = True
    level = 0
    while True:
        touched = np.zeros(size, dtype=bool)
        touched[cols[frontier[rows]]] = True
        touched[rows[frontier[cols]]] = True
        touched &= depth < 0
        if not touched.any():
            return depth
        level += 1
        depth[touched] = level
        frontier = touched


def _levels(spec: "ChainSpec") -> tuple[Level, ...]:
    """The chain's levels, cached on it (``spec._levels``)."""
    if spec._levels is not None:
        return spec._levels
    rows, cols, fails, reps, _ = spec._arc_index_arrays()
    depth = _depths(spec.size, rows, cols)
    count = int(depth.max()) + 1
    by_level = np.argsort(depth, kind="stable")
    bounds = np.searchsorted(depth[by_level], np.arange(count + 1))
    position = np.empty(spec.size, dtype=np.intp)
    position[by_level] = np.arange(spec.size) - bounds[depth[by_level]]
    width = np.diff(bounds)
    # Arcs grouped by (source level, step), step = target level - source
    # level + 1 in {0: down, 1: within, 2: up}.
    key = 3 * depth[rows] + depth[cols] - depth[rows] + 1
    by_key = np.argsort(key, kind="stable")
    edges = np.searchsorted(key[by_key], np.arange(3 * count + 1))

    def block(level: int, step: int) -> Block:
        target = level + step - 1
        arcs = by_key[edges[3 * level + step] : edges[3 * level + step + 1]]
        return Block(
            position[rows[arcs]],
            position[cols[arcs]],
            fails[arcs],
            reps[arcs],
            (int(width[level]), int(width[target]) if 0 <= target < count else 0),
        )

    states = np.split(by_level, bounds[1:-1])
    spec._levels = tuple(
        Level(states[k], block(k, 1), block(k, 2), block(k, 0)) for k in range(count)
    )
    return spec._levels


def _batch(levels: tuple[Level, ...]) -> int:
    """Ratios per pass, so a pass's blocks stay within the dense budget.

    A pass keeps every ``R_k`` for the sweep down, ``sum_k b_(k-1) b_k``
    float64 cells per ratio, and works on ``b_k x b_k`` blocks one level
    at a time; those cells plus one block of the widest level, per ratio,
    stay within :data:`~repro.markov.ctmc._DENSE_GRID_BUDGET` unless a
    single ratio exceeds it.
    """
    widths = [len(level.states) for level in levels]
    cells = sum(a * b for a, b in zip(widths, widths[1:])) + max(widths) ** 2
    return max(1, _DENSE_GRID_BUDGET // cells)


def _reduce(
    levels: tuple[Level, ...], mu: np.ndarray, lam: float, out: np.ndarray
) -> None:
    """Level reduction at every ``mu``: row *k* of ``out`` at ``mu[k]``."""
    count = mu.size
    mu = mu[:, None]

    def rates(block: Block) -> np.ndarray:
        matrix = np.zeros((count, *block.shape))
        matrix[:, block.rows, block.cols] = block.fails * lam + mu * block.reps
        return matrix

    reductions = []
    returns: np.ndarray | float = 0.0
    for k in range(len(levels) - 1, 0, -1):
        down = rates(levels[k].down)
        s = rates(levels[k].within) + returns
        diagonal = np.arange(s.shape[1])
        s[:, diagonal, diagonal] = 0.0
        s[:, diagonal, diagonal] = -(s.sum(axis=2) + down.sum(axis=2))
        up = rates(levels[k - 1].up)
        # R_k = U_{k-1} (-S_k)^-1, solved transposed.
        transposed = np.linalg.solve(-s.transpose(0, 2, 1), up.transpose(0, 2, 1))
        reductions.append(transposed.transpose(0, 2, 1))
        returns = reductions[-1] @ down
    pi = np.ones((count, 1))
    exponent = np.zeros(count, dtype=np.intp)
    sweep = [(pi, exponent)]
    for reduction in reversed(reductions):
        pi = (pi[:, None, :] @ reduction)[:, 0, :]
        _, shift = np.frexp(pi.max(axis=1))
        pi = np.ldexp(pi, -shift[:, None])
        exponent = exponent + shift
        sweep.append((pi, exponent))
    top = np.max([e for _, e in sweep], axis=0)
    total = np.zeros(count)
    for level, (pi, e) in zip(levels, sweep):
        out[:, level.states] = np.ldexp(pi, (e - top)[:, None])
        total += out[:, level.states].sum(axis=1)
    out /= total[:, None]


def sparse_steady_state_grid(
    spec: "ChainSpec", ratios: "np.typing.ArrayLike", lam: float = 1.0
) -> np.ndarray:
    """Stationary distributions across a ratio grid, by level reduction.

    The backend of :meth:`ChainSpec.steady_state_grid` with
    ``solver="sparse"``, which checks the grid and routes here: returns a
    ``(K, size)`` array whose row *k* is the stationary distribution at
    ``mu = ratios[k] * lam`` (state order = ``spec.states``).  The ratios
    go through in passes of :func:`_batch` ratios each.
    """
    grid = np.asarray(ratios, dtype=np.float64)
    levels = _levels(spec)
    spec._observe_solve("sparse", grid_size=int(grid.size))
    out = np.empty((grid.size, spec.size))
    batch = _batch(levels)
    with hotpath("markov.solve.sparse"):
        for first in range(0, grid.size, batch):
            part = slice(first, first + batch)
            _reduce(levels, grid[part] * lam, lam, out[part])
    return out


def sparse_steady_state(
    spec: "ChainSpec", ratio: float, lam: float = 1.0
) -> np.ndarray:
    """One stationary distribution at ``mu = ratio * lam``, by level reduction.

    The backend of :meth:`ChainSpec.steady_state` with ``solver="sparse"``,
    which checks the ratio and routes here.
    """
    return sparse_steady_state_grid(spec, [ratio], lam)[0]
