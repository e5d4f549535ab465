"""Unified availability API over all protocols (Section VI-C measures).

Dispatches each protocol name to its analytic machinery -- a closed
binomial form for the static protocols, the lumped Markov chain derived
from the protocol code for the dynamic family -- and exposes the three
precision levels (float, exact rational, symbolic rational function) plus
the normalised measure used in Figs. 3 and 4: availability divided by
``p = r/(1+r)``, the probability an arbitrary site is up, which
upper-bounds every algorithm under the site measure.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from fractions import Fraction

from ..core.registry import make_protocol
from ..errors import AnalysisError, ChainError
from ..obs.metrics import global_registry
from ..ratfunc import Polynomial, RationalFunction
from ..types import site_names
from .builder import derive_lumped_chain
from .chains import (
    primary_copy_availability,
    primary_copy_availability_float,
    primary_site_voting_availability,
    primary_site_voting_availability_float,
    voting_availability,
    voting_availability_float,
)
from .ctmc import ChainSpec
from .lumping import LUMP_SIGNATURES, Lumping

__all__ = [
    "availability",
    "availability_exact",
    "availability_symbolic",
    "chain_for",
    "clear_symbolic_cache",
    "grid",
    "normalized_availability",
    "symbolic_cached",
    "up_probability",
    "ANALYTIC_PROTOCOLS",
]

#: Protocols with an analytic availability in this module.
ANALYTIC_PROTOCOLS: tuple[str, ...] = (
    "voting",
    "primary-site-voting",
    "primary-copy",
    "dynamic",
    "dynamic-linear",
    "hybrid",
    "modified-hybrid",
    "optimal-candidate",
)

_CLOSED_FORMS = {
    "voting": voting_availability,
    "primary-site-voting": primary_site_voting_availability,
    "primary-copy": primary_copy_availability,
}

#: Float-native twins of the exact closed forms: the float API computes
#: in floats end-to-end, keeping exact arithmetic in availability_exact.
_CLOSED_FORMS_FLOAT = {
    "voting": voting_availability_float,
    "primary-site-voting": primary_site_voting_availability_float,
    "primary-copy": primary_copy_availability_float,
}


def chain_for(protocol_name: str, n: int) -> ChainSpec:
    """The lumped Markov chain of a protocol at ``n`` sites.

    The chain is derived from the protocol implementation with one
    representative per block of the protocol's :data:`LUMP_SIGNATURES`
    entry: O(n) states at any n, which is what carries the availability
    curves to n=25-50.  For the hybrid its labels are Fig. 2's states
    (:func:`repro.markov.state_tuple`).  Chains are cached per
    ``(protocol, n)``.  Raises :class:`ChainError` for a protocol without
    a chain or an n below the protocol's smallest.
    """
    return _chain(protocol_name, n)


@functools.lru_cache(maxsize=256)
def _chain(protocol_name: str, n: int) -> ChainSpec:
    signature = _lumping(protocol_name, n).signature
    protocol = make_protocol(protocol_name, site_names(n))
    return derive_lumped_chain(
        protocol, signature(protocol), name=f"lumped:{protocol_name}[n={n}]"
    )


def _lumping(protocol_name: str, n: int) -> Lumping:
    """The protocol's lumping, or the one error for a bad (protocol, n)."""
    lumping = LUMP_SIGNATURES.get(protocol_name)
    if lumping is None:
        known = ", ".join(sorted(LUMP_SIGNATURES))
        raise ChainError(f"no chain for {protocol_name!r}; known: {known}")
    if n < lumping.min_sites:
        raise ChainError(
            f"the {protocol_name} chain needs n >= {lumping.min_sites} sites, "
            f"got {n}"
        )
    return lumping


def _check(protocol_name: str, n: int) -> None:
    if protocol_name not in ANALYTIC_PROTOCOLS:
        known = ", ".join(ANALYTIC_PROTOCOLS)
        raise AnalysisError(
            f"no analytic availability for {protocol_name!r}; known: {known}"
        )
    if protocol_name in LUMP_SIGNATURES:
        _lumping(protocol_name, n)


def up_probability(ratio: float | Fraction):
    """P(an arbitrary site is up) = r / (1 + r); exact for Fractions."""
    if isinstance(ratio, Fraction):
        return ratio / (1 + ratio)
    return ratio / (1.0 + ratio)


def availability(protocol_name: str, n: int, ratio: float) -> float:
    """Site availability (float) of a protocol at ``n`` sites, ratio ``r``.

    Float-native end to end (Section VI-C): the closed-form protocols use
    the float binomial forms and the dynamic family the numpy chain
    solve.  Exact arithmetic lives in :func:`availability_exact`.
    """
    _check(protocol_name, n)
    if protocol_name in _CLOSED_FORMS_FLOAT:
        return _CLOSED_FORMS_FLOAT[protocol_name](n, float(ratio))
    return _chain(protocol_name, n).availability(ratio)


def availability_exact(protocol_name: str, n: int, ratio: Fraction) -> Fraction:
    """Site availability at a rational ratio, with exact arithmetic."""
    _check(protocol_name, n)
    ratio = Fraction(ratio)
    if protocol_name in _CLOSED_FORMS:
        return _CLOSED_FORMS[protocol_name](n, ratio)
    return _chain(protocol_name, n).availability_exact(ratio)


#: Cache of symbolic solves, peekable by :func:`symbolic_cached` so
#: :func:`grid` can take the Horner fast path only when the (expensive)
#: symbolic solve has already been paid for.  A plain dict rather than an
#: ``lru_cache``: the key population is tiny (protocols x small n) and
#: membership must be observable.
_SYMBOLIC_CACHE: dict[tuple[str, int], RationalFunction] = {}


def availability_symbolic(protocol_name: str, n: int) -> RationalFunction:
    """Site availability as an exact rational function of ``r = mu/lambda``.

    For the chain-based protocols this is the Maple-style symbolic solve;
    for the static closed forms the binomial sum is assembled directly
    (with ``p = r/(1+r)`` substituted, the result is rational in *r*).
    Results are cached per ``(protocol, n)``.
    """
    _check(protocol_name, n)
    key = (protocol_name, n)
    cached = _SYMBOLIC_CACHE.get(key)
    if cached is None:
        if protocol_name in _CLOSED_FORMS:
            cached = _closed_form_symbolic(protocol_name, n)
        else:
            cached = _chain(protocol_name, n).availability_symbolic()
        _SYMBOLIC_CACHE[key] = cached
    return cached


def symbolic_cached(protocol_name: str, n: int) -> bool:
    """Whether the symbolic availability is already cached (no solve)."""
    return (protocol_name, n) in _SYMBOLIC_CACHE


def clear_symbolic_cache() -> None:
    """Drop every cached symbolic solve (tests and benchmarks only).

    Empties the cache :func:`grid`'s Horner fast path keys off, so a
    caller can force the batched-solve path regardless of what earlier
    experiments computed (the Theorem 3 machinery caches symbolic
    availabilities as a side effect).
    """
    _SYMBOLIC_CACHE.clear()


def _closed_form_symbolic(protocol_name: str, n: int) -> RationalFunction:
    """Assemble the static availabilities as rational functions of r."""
    import math

    r = Polynomial.linear(0, 1)
    one = Polynomial.constant(1)
    # p = r / (1 + r); a term p^k q^(n-k) = r^k / (1+r)^n.
    denominator = (one + r) ** n
    numerator = Polynomial()
    if protocol_name == "voting":
        for k in range(n // 2 + 1, n + 1):
            numerator = numerator + Polynomial.constant(
                Fraction(k, n) * math.comb(n, k)
            ) * r**k
    elif protocol_name == "primary-site-voting":
        for k in range(n // 2 + 1, n + 1):
            numerator = numerator + Polynomial.constant(
                Fraction(k, n) * math.comb(n, k)
            ) * r**k
        if n % 2 == 0:
            k = n // 2
            numerator = numerator + Polynomial.constant(
                Fraction(k, n) * math.comb(n - 1, k - 1)
            ) * r**k
    elif protocol_name == "primary-copy":
        # p(1 + (n-1)p)/n = r(1 + n r) / (n (1+r)^2) with p = r/(1+r).
        numerator = r * (one + Polynomial.constant(n) * r)
        denominator = Polynomial.constant(n) * (one + r) ** 2
        return RationalFunction(numerator, denominator)
    else:  # pragma: no cover - guarded by caller
        raise AnalysisError(f"no symbolic closed form for {protocol_name!r}")
    return RationalFunction(numerator, denominator)


def grid(
    protocol_name: str,
    n: int,
    ratios: Sequence[float],
    *,
    prefer_symbolic: bool = True,
    solver: str = "auto",
) -> tuple[float, ...]:
    """Site availabilities across a whole ratio grid -- the unified fast
    entry point for Section VI's curves (Figs. 3 and 4, the validation
    grid, crossover scans).

    Per-protocol dispatch, cheapest-first:

    * closed-form protocols evaluate the float binomial forms per point
      (no linear algebra at all);
    * chain protocols whose symbolic availability is already cached
      (``prefer_symbolic=True``, the default) evaluate the rational
      function by float Horner per point -- no solves;
    * otherwise all K points are solved in **one** batched
      ``np.linalg.solve`` call via :meth:`ChainSpec.availability_grid`
      -- or through the level-reduction backend when the chain is large or
      ``solver="sparse"`` forces it (``solver`` also accepts ``"dense"``;
      forcing a backend disables the Horner shortcut so the requested
      solver actually runs).

    Every path agrees with per-point :func:`availability` to ~1e-12
    (verified in the tests); solve telemetry lands on the global metrics
    registry (``markov.solve.batched`` / ``markov.solve.horner`` /
    ``markov.solve.sparse`` plus the ``markov.solve.grid_size``
    histogram, docs/OBSERVABILITY.md).
    """
    _check(protocol_name, n)
    points = [float(ratio) for ratio in ratios]
    if not points:
        raise AnalysisError("availability grid needs at least one ratio")
    if protocol_name in _CLOSED_FORMS_FLOAT:
        form = _CLOSED_FORMS_FLOAT[protocol_name]
        return tuple(form(n, point) for point in points)
    if (
        solver == "auto"
        and prefer_symbolic
        and symbolic_cached(protocol_name, n)
    ):
        registry = global_registry()
        if registry.enabled:
            registry.counter("markov.solve.horner").inc()
            registry.histogram("markov.solve.grid_size").observe(len(points))
        symbolic = availability_symbolic(protocol_name, n)
        return tuple(symbolic.evaluate_grid(points))
    values = _chain(protocol_name, n).availability_grid(points, solver=solver)
    return tuple(float(value) for value in values)


def normalized_availability(protocol_name: str, n: int, ratio: float) -> float:
    """Availability divided by P(site up) -- the y-axis of Figs. 3 and 4."""
    p = up_probability(float(ratio))
    if p == 0:
        raise AnalysisError("normalised availability undefined at ratio 0")
    return availability(protocol_name, n, ratio) / p
