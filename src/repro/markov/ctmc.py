"""Continuous-time Markov chains with (lambda, mu)-linear rates.

Every chain in Section VI has transition rates of the form
``a*lambda + b*mu`` with small nonnegative integers *a* and *b* (the number
of sites whose failure/repair triggers the move).  :class:`ChainSpec`
captures exactly that structure, which buys three solution modes from one
description:

* **numeric** -- float steady state via numpy (fast; used for curves);
* **exact**   -- ``Fraction`` steady state at a rational ratio ``r=mu/lambda``
  (the paper's "computed exactly using rational arithmetic");
* **symbolic** -- steady state as :class:`RationalFunction` of *r* via
  fraction-free elimination (the paper's Maple ``solve``).

The *availability* of a chain is ``sum_s w(s) * pi(s)`` for per-state
weights *w* -- ``k/n`` for the available states with *k* sites up, zero
otherwise (the paper's site measure).
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Any

import numpy as np

from ..errors import ChainError
from ..obs.metrics import global_registry
from ..ratfunc import Polynomial, RationalFunction, bareiss_solve, fraction_solve

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .sparse import Level

__all__ = ["Arc", "ChainSpec", "SPARSE_THRESHOLD"]

State = Hashable

#: States above which ``solver="auto"`` routes steady-state solves to the
#: level-reduction backend in :mod:`repro.markov.sparse` instead of dense
#: LAPACK (docs/PERFORMANCE.md, "Large-n solvers").
SPARSE_THRESHOLD = 128

#: Dense-work budget for batched grids, in float64 cells of the stacked
#: ``(K, n, n)`` generator tensor.  An "auto" grid goes sparse above this
#: even when the chain itself is under :data:`SPARSE_THRESHOLD`, and the
#: sparse backend splits a grid into passes that each fit it.
_DENSE_GRID_BUDGET = 8_000_000

#: Hard ceiling for materialising a dense generator at all; beyond it the
#: allocation alone is a mistake and only the sparse path makes sense.
_DENSE_MATERIALIZE_LIMIT = 4_096

_SOLVERS = ("auto", "dense", "sparse")


@dataclass(frozen=True, slots=True)
class Arc:
    """One transition: rate = ``failures * lambda + repairs * mu``."""

    source: State
    target: State
    failures: int = 0
    repairs: int = 0

    def __post_init__(self) -> None:
        if self.failures < 0 or self.repairs < 0:
            raise ChainError(f"negative rate multiplicity in {self!r}")
        if self.failures == 0 and self.repairs == 0:
            raise ChainError(f"zero-rate arc {self.source!r} -> {self.target!r}")
        if self.source == self.target:
            raise ChainError(f"self-loop at {self.source!r}")


class ChainSpec:
    """A validated CTMC over named states with linear (lambda, mu) rates.

    Arcs sharing (source, target) are merged by summing multiplicities.
    ``weights`` maps each state to its availability weight (a
    :class:`Fraction`); missing states weigh zero.
    """

    def __init__(
        self,
        name: str,
        states: Iterable[State],
        arcs: Iterable[Arc],
        weights: Mapping[State, Fraction],
    ) -> None:
        self.name = name
        self._states = tuple(states)
        if len(set(self._states)) != len(self._states):
            raise ChainError(f"duplicate states in chain {name!r}")
        if not self._states:
            raise ChainError(f"chain {name!r} has no states")
        index = {state: i for i, state in enumerate(self._states)}
        merged: dict[tuple[int, int], list[int]] = {}
        for arc in arcs:
            if arc.source not in index or arc.target not in index:
                raise ChainError(
                    f"arc {arc.source!r} -> {arc.target!r} references unknown states"
                )
            key = (index[arc.source], index[arc.target])
            entry = merged.setdefault(key, [0, 0])
            entry[0] += arc.failures
            entry[1] += arc.repairs
        self._finish_init(
            index, {key: (f, r) for key, (f, r) in merged.items()}, weights
        )

    @classmethod
    def from_indexed_arcs(
        cls,
        name: str,
        states: Iterable[State],
        indexed_arcs: Mapping[tuple[int, int], tuple[int, int]],
        weights: Mapping[State, Fraction],
    ) -> "ChainSpec":
        """Construct from positionally indexed arcs, no :class:`Arc` objects.

        ``indexed_arcs`` maps ``(source, target)`` state *positions* to
        already-merged ``(failures, repairs)`` multiplicities.  This is the
        streaming build path: :func:`repro.markov.builder.derive_chain`
        accumulates one small integer pair per distinct transition while
        exploring, so n=25-50 chains assemble without ever holding a
        per-transition arc list (docs/PERFORMANCE.md).
        """
        self = cls.__new__(cls)
        self.name = name
        self._states = tuple(states)
        if len(set(self._states)) != len(self._states):
            raise ChainError(f"duplicate states in chain {name!r}")
        if not self._states:
            raise ChainError(f"chain {name!r} has no states")
        size = len(self._states)
        merged: dict[tuple[int, int], tuple[int, int]] = {}
        for (i, j), (f, r) in indexed_arcs.items():
            if not (0 <= i < size and 0 <= j < size):
                raise ChainError(
                    f"arc index ({i}, {j}) out of range for chain {name!r}"
                )
            if i == j:
                raise ChainError(f"self-loop at {self._states[i]!r}")
            if f < 0 or r < 0:
                raise ChainError(f"negative rate multiplicity on arc ({i}, {j})")
            if f == 0 and r == 0:
                raise ChainError(
                    f"zero-rate arc {self._states[i]!r} -> {self._states[j]!r}"
                )
            merged[(i, j)] = (int(f), int(r))
        index = {state: i for i, state in enumerate(self._states)}
        self._finish_init(index, merged, weights)
        return self

    def _finish_init(
        self,
        index: dict[State, int],
        arcs: dict[tuple[int, int], tuple[int, int]],
        weights: Mapping[State, Fraction],
    ) -> None:
        self._arcs = arcs
        self._index = index
        self._weights = {
            state: Fraction(weights.get(state, 0)) for state in self._states
        }
        for state, weight in self._weights.items():
            if weight < 0 or weight > 1:
                raise ChainError(f"weight for {state!r} out of [0, 1]: {weight}")
        self._arc_vectors: tuple[np.ndarray, ...] | None = None
        self._out_adjacency: tuple[tuple[tuple[State, int, int], ...], ...] | None = (
            None
        )
        self._levels: tuple[Level, ...] | None = None
        self._dense_oversize_reported = False
        self._check_connected()

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def states(self) -> tuple[State, ...]:
        """All states, in declaration order."""
        return self._states

    @property
    def size(self) -> int:
        """Number of states."""
        return len(self._states)

    def arcs(self) -> tuple[Arc, ...]:
        """The merged arcs."""
        inverse = {i: s for s, i in self._index.items()}
        return tuple(
            Arc(inverse[i], inverse[j], f, r)
            for (i, j), (f, r) in sorted(self._arcs.items())
        )

    def weight(self, state: State) -> Fraction:
        """Availability weight of a state."""
        return self._weights[state]

    def rate(self, source: State, target: State) -> tuple[int, int]:
        """(failures, repairs) multiplicities of an arc; (0, 0) if absent."""
        key = (self._index[source], self._index[target])
        return self._arcs.get(key, (0, 0))

    def transitions_from(
        self, source: State
    ) -> tuple[tuple[State, int, int], ...]:
        """Outgoing ``(target, failures, repairs)`` arcs of one state.

        Backed by a per-chain adjacency index built once in O(V + E);
        consumers that walk neighbourhoods (the lumping verifier above
        all) iterate this instead of probing :meth:`rate` against every
        state, which was an O(V^2) scan.
        """
        if self._out_adjacency is None:
            adjacency: list[list[tuple[State, int, int]]] = [
                [] for _ in self._states
            ]
            for (i, j), (f, r) in sorted(self._arcs.items()):
                adjacency[i].append((self._states[j], f, r))
            self._out_adjacency = tuple(tuple(out) for out in adjacency)
        return self._out_adjacency[self._index[source]]

    def _check_connected(self) -> None:
        """Verify the digraph is strongly connected (irreducible chain).

        Irreducibility guarantees a unique steady state; the chains of the
        paper are all irreducible for mu > 0.
        """
        size = len(self._states)
        forward: dict[int, set[int]] = {i: set() for i in range(size)}
        backward: dict[int, set[int]] = {i: set() for i in range(size)}
        for (i, j) in self._arcs:
            forward[i].add(j)
            backward[j].add(i)
        for adjacency in (forward, backward):
            seen = {0}
            frontier = [0]
            while frontier:
                node = frontier.pop()
                for nxt in adjacency[node]:
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            if len(seen) != size:
                missing = [s for s, i in self._index.items() if i not in seen]
                raise ChainError(
                    f"chain {self.name!r} is not irreducible; unreachable "
                    f"states (one direction): {missing[:5]}"
                )

    # ------------------------------------------------------------------ #
    # Numeric solution
    # ------------------------------------------------------------------ #

    def _resolve_solver(self, solver: str, grid_size: int = 1) -> str:
        """Pick the concrete backend for a requested ``solver`` knob.

        ``auto`` goes sparse above :data:`SPARSE_THRESHOLD` states, or
        when the stacked dense grid tensor would exceed the
        :data:`_DENSE_GRID_BUDGET` work budget.  Forcing ``dense`` above
        the threshold is honoured but reported once per chain via the
        ``markov.solve.dense_oversize`` warning counter.
        """
        if solver not in _SOLVERS:
            raise ChainError(
                f"unknown solver {solver!r}; expected one of {_SOLVERS}"
            )
        if solver == "auto":
            if self.size > SPARSE_THRESHOLD:
                return "sparse"
            if grid_size * self.size * self.size > _DENSE_GRID_BUDGET:
                return "sparse"
            return "dense"
        if solver == "dense" and self.size > SPARSE_THRESHOLD:
            if self.size > _DENSE_MATERIALIZE_LIMIT:
                raise ChainError(
                    f"chain {self.name!r} has {self.size} states; dense "
                    "solves are capped at "
                    f"{_DENSE_MATERIALIZE_LIMIT} -- use solver='sparse'"
                )
            self._report_dense_oversize()
        return solver

    def _report_dense_oversize(self) -> None:
        """One-time warning metric: a forced dense solve above threshold."""
        if self._dense_oversize_reported:
            return
        self._dense_oversize_reported = True
        registry = global_registry()
        if registry.enabled:
            registry.counter("markov.solve.dense_oversize").inc()

    def generator_matrix(self, lam: float, mu: float) -> np.ndarray:
        """The generator Q (rows sum to zero) at concrete rates."""
        size = len(self._states)
        if size > _DENSE_MATERIALIZE_LIMIT:
            raise ChainError(
                f"chain {self.name!r} has {size} states; a dense generator "
                f"would allocate {size}x{size} floats.  Route through the "
                "sparse backend instead (solver='sparse')."
            )
        q = np.zeros((size, size))
        for (i, j), (f, r) in self._arcs.items():
            q[i, j] = f * lam + r * mu
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        return q

    def _observe_solve(self, mode: str, grid_size: int | None = None) -> None:
        """Report a steady-state solve to the global metrics registry.

        Chain sizes are recorded as gauges at solve time (not at build
        time) so the series do not depend on whether a chain came out of
        an ``lru_cache`` -- solves happen every call, builds do not, and
        manifest determinism relies on that.  Batched solves pass
        ``grid_size`` (the number of ratios solved in one LAPACK call);
        the ``markov.solve.batched`` counter plus the
        ``markov.solve.grid_size`` histogram let manifests distinguish
        one 20-point batch from 20 per-point solves.
        """
        registry = global_registry()
        if not registry.enabled:
            return
        registry.counter(f"markov.solve.{mode}").inc()
        if grid_size is not None:
            registry.histogram("markov.solve.grid_size").observe(grid_size)
        registry.histogram("markov.solve.dimension").observe(self.size)
        scope = registry.scope(f"markov.chain.{self.name}")
        scope.gauge("states").set(self.size)
        scope.gauge("arcs").set(len(self._arcs))

    def steady_state(
        self, ratio: float, lam: float = 1.0, *, solver: str = "auto"
    ) -> dict[State, float]:
        """Stationary distribution at ``mu = ratio * lam`` (floats).

        ``solver`` is ``"dense"`` (LAPACK on the materialised generator),
        ``"sparse"`` (level reduction, see :mod:`repro.markov.sparse`) or
        ``"auto"`` (dense below :data:`SPARSE_THRESHOLD` states, sparse
        above -- both solve the same balance equations).
        """
        if ratio <= 0:
            raise ChainError(f"repair/failure ratio must be positive: {ratio}")
        if self._resolve_solver(solver) == "sparse":
            from .sparse import sparse_steady_state

            return dict(zip(self._states, sparse_steady_state(self, ratio, lam)))
        self._observe_solve("numeric")
        q = self.generator_matrix(lam, ratio * lam)
        size = q.shape[0]
        a = q.T.copy()
        a[-1, :] = 1.0
        b = np.zeros(size)
        b[-1] = 1.0
        pi = np.linalg.solve(a, b)
        return dict(zip(self._states, pi))

    def availability(self, ratio: float, *, solver: str = "auto") -> float:
        """Site availability ``sum w(s) pi(s)`` at a float ratio."""
        pi = self.steady_state(ratio, solver=solver)
        return float(
            sum(float(self._weights[s]) * p for s, p in pi.items())
        )

    # ------------------------------------------------------------------ #
    # Batched numeric solution over a ratio grid
    # ------------------------------------------------------------------ #

    def _arc_index_arrays(self) -> tuple[np.ndarray, ...]:
        """Vectorized arc index: (rows, cols, failures, repairs, weights).

        Built once per chain and cached; the arrays are what lets a whole
        ratio grid's generator tensor be assembled without re-walking the
        arc dictionary per point (docs/PERFORMANCE.md).
        """
        if self._arc_vectors is None:
            keys = sorted(self._arcs)
            rows = np.array([i for i, _ in keys], dtype=np.intp)
            cols = np.array([j for _, j in keys], dtype=np.intp)
            fails = np.array([self._arcs[k][0] for k in keys], dtype=np.float64)
            reps = np.array([self._arcs[k][1] for k in keys], dtype=np.float64)
            weights = np.array(
                [float(self._weights[s]) for s in self._states], dtype=np.float64
            )
            self._arc_vectors = (rows, cols, fails, reps, weights)
        return self._arc_vectors

    def steady_state_grid(
        self,
        ratios: "np.typing.ArrayLike",
        lam: float = 1.0,
        *,
        solver: str = "auto",
    ) -> np.ndarray:
        """Stationary distributions at every ratio, one batched solve.

        Assembles the stacked ``(K, n, n)`` generator tensor from the
        precomputed arc index and solves all K balance systems in a
        single ``np.linalg.solve`` call.  Returns a ``(K, n)`` array whose
        row *k* is the stationary distribution at ``mu = ratios[k] * lam``
        (state order = :attr:`states`).  Each slice is the same linear
        system :meth:`steady_state` solves point-by-point, so the results
        agree to machine precision; the paper's Section VI curves only
        need the solves, not the Python loop around them.
        """
        grid = np.asarray(ratios, dtype=np.float64)
        if grid.ndim != 1:
            raise ChainError(f"ratio grid must be one-dimensional: {grid.shape}")
        if grid.size == 0:
            raise ChainError("ratio grid is empty")
        if np.any(grid <= 0):
            raise ChainError("repair/failure ratios must all be positive")
        if self._resolve_solver(solver, grid_size=int(grid.size)) == "sparse":
            from .sparse import sparse_steady_state_grid

            return sparse_steady_state_grid(self, grid, lam)
        self._observe_solve("batched", grid_size=int(grid.size))
        rows, cols, fails, reps, _ = self._arc_index_arrays()
        size = self.size
        # rates[k, a] = failures_a * lambda + repairs_a * mu_k
        rates = fails * lam + np.outer(grid * lam, reps)
        q = np.zeros((grid.size, size, size))
        q[:, rows, cols] = rates
        diagonal = np.arange(size)
        q[:, diagonal, diagonal] = -q.sum(axis=2)
        a = q.transpose(0, 2, 1).copy()
        a[:, -1, :] = 1.0
        b = np.zeros((grid.size, size))
        b[:, -1] = 1.0
        return np.linalg.solve(a, b[:, :, None])[:, :, 0]

    def availability_grid(
        self, ratios: "np.typing.ArrayLike", *, solver: str = "auto"
    ) -> np.ndarray:
        """Site availabilities across a ratio grid, one batched solve.

        ``(K,)`` array: the batched counterpart of calling
        :meth:`availability` per point (Section VI's figure curves).
        Large chains (``size > SPARSE_THRESHOLD``) route through the
        sparse backend automatically; ``solver`` forces a backend.
        """
        _, _, _, _, weights = self._arc_index_arrays()
        return self.steady_state_grid(ratios, solver=solver) @ weights

    # ------------------------------------------------------------------ #
    # Exact solution at a rational ratio
    # ------------------------------------------------------------------ #

    def steady_state_exact(self, ratio: Fraction) -> dict[State, Fraction]:
        """Stationary distribution at a rational ratio, exactly.

        At ``ratio = p/q`` each balance equation is scaled by *q*, so the
        system is integer: an arc of multiplicities (f, r) has rate
        ``f*q + r*p``.
        """
        ratio = Fraction(ratio)
        if ratio <= 0:
            raise ChainError(f"repair/failure ratio must be positive: {ratio}")
        self._observe_solve("exact")
        p, q = ratio.numerator, ratio.denominator
        a, b = self._balance_system(lambda f, r: f * q + r * p)
        pi = fraction_solve(a, b)
        return dict(zip(self._states, pi))

    def availability_exact(self, ratio: Fraction) -> Fraction:
        """Site availability at a rational ratio, exactly."""
        pi = self.steady_state_exact(Fraction(ratio))
        return sum(
            (w * pi[s] for s, w in self._weights.items() if w), start=Fraction(0)
        )

    # ------------------------------------------------------------------ #
    # Symbolic solution
    # ------------------------------------------------------------------ #

    def steady_state_symbolic(self) -> dict[State, RationalFunction]:
        """Stationary distribution as rational functions of r = mu/lambda.

        The balance equations are assembled with lambda = 1 and mu = r
        (availability depends on the rates only through their ratio) and
        solved by fraction-free elimination.
        """
        numerators, determinant = self._symbolic_solve()
        return {
            state: RationalFunction(numerator, determinant)
            for state, numerator in zip(self._states, numerators)
        }

    def availability_symbolic(self) -> RationalFunction:
        """Site availability as an exact rational function of r.

        One reduction: ``sum w(s) * X(s) / D`` over the fraction-free
        solution ``pi(s) = X(s) / D``.
        """
        numerators, determinant = self._symbolic_solve()
        total = Polynomial()
        for state, numerator in zip(self._states, numerators):
            weight = self._weights[state]
            if weight:
                total = total + numerator * weight
        return RationalFunction(total, determinant)

    def _symbolic_solve(self) -> tuple[list[Polynomial], Polynomial]:
        """Bareiss's ``(numerators, determinant)``; rates ``f + r*x`` as ``(f, r)``."""
        self._observe_solve("symbolic")
        return bareiss_solve(*self._balance_system(lambda f, r: (f, r)))

    def _balance_system(
        self, rate: Callable[[int, int], Any]
    ) -> tuple[list[list[Any]], list[int]]:
        """The transposed generator, its last row replaced by ones: ``(A, b)``.

        ``rate(f, r)`` is the entry of an arc with multiplicities (f, r); a
        diagonal entry is ``rate`` of the negated sums of its state's
        outgoing multiplicities.  Every other entry is the integer 0.
        """
        size = len(self._states)
        a: list[list[Any]] = [[0] * size for _ in range(size)]
        out = [[0, 0] for _ in range(size)]
        for (i, j), (f, r) in self._arcs.items():
            a[j][i] = rate(f, r)  # transposed: column balance equations
            out[i][0] += f
            out[i][1] += r
        for i, (f, r) in enumerate(out):
            a[i][i] = rate(-f, -r)
        a[size - 1] = [1] * size
        b = [0] * size
        b[-1] = 1
        return a, b

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ChainSpec {self.name!r}: {self.size} states, {len(self._arcs)} arcs>"
