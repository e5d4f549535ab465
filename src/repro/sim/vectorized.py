"""Structure-of-arrays Monte-Carlo backend: all replicates advance per step.

The scalar :class:`~repro.sim.model.StochasticReplicaSystem` processes one
event at a time through Python objects; it is the *reference oracle*, but
its per-event cost caps ``mc.events``/sec.  Under the Section VI-B
assumptions (independent exponential failure/repair clocks, infallible
links, an update after every event) an entire batch of replicates can
instead be advanced with a handful of numpy operations per event step:

* **State** is the lumped state of each replicate, one value per
  replicate: the up set and the current set (the up set of the last
  accepted update) as uint64 site bitmasks (bit i = site i in canonical
  order, so ``n <= 63``), and the SC/DS entry the current copies share,
  DS as a bitmask too.  An ``(R, n)`` boolean up array mirrors the up
  mask for event sampling only.
* **Exactness** rests on two facts.  With infallible links the partition
  is the up set, and every accepted update installs at all of it, so the
  current copies are exactly the last accepted update's up set and all
  share its SC/DS.  Theorem 1 adds that a partition holding no current
  copy is never distinguished, so the stale copies' metadata is never
  read: stale-only partitions are denied whatever the kernel returns,
  and every other decision reads the current copies' SC/DS.
* **Events** are sampled by competing exponentials, vectorized: the next
  event in replicate r arrives after ``Exp(sum of per-site rates)`` and
  strikes a site chosen proportionally to its rate -- a row-wise cumulative
  sum against one uniform draw, exactly the race
  :class:`~repro.sim.failures.FailureRepairSampler` runs per replicate.
* **Decisions** (``Is_Distinguished``) are integer comparisons on
  popcounts and ANDs of the masks -- ``k = |up|``, ``|I| = |up & current|``
  -- and SC/DS, one :class:`_Kernel` per registered protocol; an accepted
  ``Do_Update`` installs the new current set, SC and DS with three
  ``np.where`` calls.
* **Availability** accumulates time-weighted ``(k/n) * 1[distinguished]``
  with batched multiply-adds, mirroring
  :class:`~repro.sim.model.AvailabilityAccumulator`.

Randomness: replicate *i* draws from its own ``numpy.random.Generator``
over a Philox counter stream keyed by SHA-256 of ``(seed, stream name)``
via :func:`~repro.sim.rng.derive_seed` -- the same keying discipline as the
scalar backend, under a distinct ``vector:`` namespace.  A replicate's
trajectory is therefore a pure function of ``(seed, stream name)``: bitwise
identical for every batch size and worker count.  This module is,
alongside ``sim/rng.py``, the only sanctioned RNG construction site
(replint REP001/REP002, docs/LINTING.md).

The backend is *statistically* -- not bitwise -- equivalent to the scalar
oracle (different generators, same law).  ``tests/sim/test_vectorized.py``
holds a stronger per-event parity contract through
:meth:`VectorizedReplicaBatch.force_events`, which replays identical event
sequences through both implementations, and
``tests/sim/persite_reference.py`` keeps the per-site metadata layout as
the oracle for the lumped state.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.base import ReplicaControlProtocol
from ..core.dynamic_linear import DynamicLinearProtocol
from ..core.dynamic_voting import DynamicVotingProtocol
from ..core.generalized import GeneralizedHybridProtocol
from ..core.hybrid import HybridProtocol
from ..core.registry import make_protocol
from ..core.static_voting import (
    MajorityVotingProtocol,
    PrimaryCopyProtocol,
    PrimarySiteVotingProtocol,
)
from ..core.variants import ModifiedHybridProtocol, OptimalCandidateProtocol
from ..errors import SimulationError
from ..types import site_names
from .failures import Rates
from .rng import derive_seed

__all__ = [
    "MAX_SITES",
    "BatchOutcome",
    "VectorizedReplicaBatch",
    "ensure_supported",
    "simulate_batch",
    "supported_protocols",
]

#: Site sets are uint64 bitmasks, so one bit per site.
MAX_SITES = 63

#: Pre-drawn uniforms per chunk are capped at this many floats per batch,
#: so memory stays bounded however large the batch is.  Chunk boundaries
#: cannot change results: each replicate's generator is consumed strictly
#: sequentially, so splitting draws differently yields the same stream.
_CHUNK_BUDGET = 1 << 20

#: ``_TOP_BIT[e]`` is ``2**(e - 1)``, the highest bit of a mask whose
#: float64 value ``np.frexp`` gives exponent ``e``; ``_TOP_BIT[0] = 0``.
_TOP_BIT = np.concatenate(
    ([np.uint64(0)], np.uint64(1) << np.arange(64, dtype=np.uint64))
)


class _Kernel:
    """Vectorized ``Is_Distinguished`` / ``Do_Update`` of one protocol.

    Kernels read (R,) arrays: ``up``, the partition's site mask; ``live``,
    the current copies inside it (*I*); ``k``, the popcount of ``up``;
    ``sc``/``ds``, the SC and DS entry of the copies ``live`` names; and
    ``struck``, the bit of the site the event toggled.  ``decide``
    returns the per-replicate accept vector; ``commit`` returns the
    ``(new_sc, new_ds)`` an accepted update installs, each an (R,) array
    or a scalar (values in non-accepted rows are unused).  Kernels are
    pure functions of their arguments, mirroring the purity of the scalar
    decision procedures.
    """

    def __init__(self, protocol: ReplicaControlProtocol) -> None:
        self.n = protocol.n_sites

    def decide(self, up, live, k, sc, ds) -> np.ndarray:
        raise NotImplementedError

    def commit(self, up, k, sc, ds, struck) -> tuple:
        raise NotImplementedError

    # Shared rule fragments (the vectorized _dynamic_majority and the
    # dynamic-linear tie-break, reused across the dynamic family).

    def _top_bit(self, masks: np.ndarray) -> np.ndarray:
        """Bit of the greatest site in each mask (0 for an empty mask)."""
        top = _TOP_BIT[np.frexp(masks.astype(np.float64))[1]]
        if self.n > 53:
            # float64 keeps 53 bits, so a wider mask can round up to the
            # next power of two.
            top >>= top > masks
        return top

    @staticmethod
    def _majority(count: np.ndarray, sc: np.ndarray) -> np.ndarray:
        """card(I) > N/2 -- step 3 of ``Is_Distinguished``."""
        return 2 * count > sc

    @staticmethod
    def _linear_tie(count, live, sc, ds) -> np.ndarray:
        """card(I) = N/2 with the single distinguished site inside *I*."""
        return (
            (2 * count == sc)
            & (np.bitwise_count(ds) == 1)
            & ((ds & live) != 0)
        )

    def _linear_ds(self, up: np.ndarray, k: np.ndarray) -> np.ndarray:
        """DS after a dynamic-linear style commit: greatest site iff even."""
        return np.where(k % 2 == 0, self._top_bit(up), np.uint64(0))


class _StaticKernel(_Kernel):
    """Static voting rules: SC stays n and DS empty at every commit."""

    def commit(self, up, k, sc, ds, struck) -> tuple:
        return self.n, np.uint64(0)


class _MajorityKernel(_StaticKernel):
    """Static voting: one vote per site, strict majority to commit."""

    def __init__(self, protocol: MajorityVotingProtocol) -> None:
        super().__init__(protocol)
        self._threshold = protocol.write_threshold

    def decide(self, up, live, k, sc, ds) -> np.ndarray:
        return k >= self._threshold


class _PrimarySiteKernel(_StaticKernel):
    """Majority voting with a primary site breaking exact ties."""

    def __init__(self, protocol: PrimarySiteVotingProtocol) -> None:
        super().__init__(protocol)
        self._primary = np.uint64(1 << sorted(protocol.sites).index(protocol.primary))

    def decide(self, up, live, k, sc, ds) -> np.ndarray:
        held = 2 * k
        return (held > self.n) | ((held == self.n) & ((up & self._primary) != 0))


class _PrimaryCopyKernel(_StaticKernel):
    """Primary-copy: the primary's partition is distinguished."""

    def __init__(self, protocol: PrimaryCopyProtocol) -> None:
        super().__init__(protocol)
        self._primary = np.uint64(1 << sorted(protocol.sites).index(protocol.primary))

    def decide(self, up, live, k, sc, ds) -> np.ndarray:
        return (up & self._primary) != 0


class _DynamicKernel(_Kernel):
    """The SIGMOD'87 dynamic voting rule: card(I) > N/2."""

    def decide(self, up, live, k, sc, ds) -> np.ndarray:
        return self._majority(np.bitwise_count(live), sc)

    def commit(self, up, k, sc, ds, struck) -> tuple:
        return k, np.uint64(0)


class _DynamicLinearKernel(_Kernel):
    """Dynamic voting with linearly ordered copies."""

    def decide(self, up, live, k, sc, ds) -> np.ndarray:
        count = np.bitwise_count(live)
        return self._majority(count, sc) | self._linear_tie(count, live, sc, ds)

    def commit(self, up, k, sc, ds, struck) -> tuple:
        return k, self._linear_ds(up, k)


class _HybridKernel(_Kernel):
    """The hybrid algorithm: dynamic-linear plus the three-site static phase."""

    def decide(self, up, live, k, sc, ds) -> np.ndarray:
        count = np.bitwise_count(live)
        static = (
            (sc == 3)
            & (np.bitwise_count(ds) == 3)
            & (np.bitwise_count(ds & up) >= 2)
        )
        return (
            self._majority(count, sc)
            | self._linear_tie(count, live, sc, ds)
            | static
        )

    def commit(self, up, k, sc, ds, struck) -> tuple:
        # Do_Update's exception: a two-site update at cardinality 3 bumps
        # only the version number (SC and the trio survive).
        bump = (sc == 3) & (k == 2)
        base_ds = np.where(k == 3, up, self._linear_ds(up, k))
        return np.where(bump, sc, k), np.where(bump, ds, base_ds)


class _GeneralizedHybridKernel(_Kernel):
    """The parametric hybrid family: a static phase of odd size *t*."""

    def __init__(self, protocol: GeneralizedHybridProtocol) -> None:
        super().__init__(protocol)
        self._t = protocol.threshold
        self._m = protocol.static_majority

    def _static_phase(self, sc, ds) -> np.ndarray:
        return (sc == self._t) & (np.bitwise_count(ds) == self._t)

    def decide(self, up, live, k, sc, ds) -> np.ndarray:
        count = np.bitwise_count(live)
        static = self._static_phase(sc, ds) & (
            np.bitwise_count(ds & up) >= self._m
        )
        return (
            self._majority(count, sc)
            | self._linear_tie(count, live, sc, ds)
            | static
        )

    def commit(self, up, k, sc, ds, struck) -> tuple:
        bump = self._static_phase(sc, ds) & (k == self._m)
        base_ds = np.where(k == self._t, up, self._linear_ds(up, k))
        return np.where(bump, sc, k), np.where(bump, ds, base_ds)


class _ModifiedHybridKernel(_Kernel):
    """Section VII's modified hybrid (Changes 1 and 2)."""

    def __init__(self, protocol: ModifiedHybridProtocol) -> None:
        super().__init__(protocol)
        if self.n < 3:
            raise SimulationError(
                "the vectorized modified-hybrid kernel needs n >= 3 (a "
                "two-site update must have a down site to name)"
            )
        self._sites = np.uint64((1 << self.n) - 1)

    def decide(self, up, live, k, sc, ds) -> np.ndarray:
        count = np.bitwise_count(live)
        big = self._majority(count, sc) | self._linear_tie(count, live, sc, ds)
        pair_tie = (
            (2 * count == sc)
            & (np.bitwise_count(ds) == 1)
            & ((ds & up) != 0)
        )
        small = (count == sc) | pair_tie
        return np.where(sc >= 3, big, small)

    def commit(self, up, k, sc, ds, struck) -> tuple:
        # A two-site commit names a down site: the site that just failed
        # when the event was a failure (it is down and outside the
        # partition by construction), else the greatest site outside the
        # partition -- exactly _choose_down_site.  The complement of the
        # up mask is cut to the n site bits.
        failed = struck & ~up
        named = np.where(failed != 0, failed, self._top_bit(~up & self._sites))
        pair = k == 2
        return (
            np.where(pair, 2, k),
            np.where(pair, named, self._linear_ds(up, k)),
        )


class _OptimalCandidateKernel(_Kernel):
    """Footnote 6's optimal candidate: global majority breaks pair ties."""

    def decide(self, up, live, k, sc, ds) -> np.ndarray:
        count = np.bitwise_count(live)
        big = self._majority(count, sc) | self._linear_tie(count, live, sc, ds)
        pair_tie = (2 * count == sc) & (2 * k > self.n)
        small = (count == sc) | pair_tie
        return np.where(sc >= 3, big, small)

    def commit(self, up, k, sc, ds, struck) -> tuple:
        # A two-site commit conceptually names all other sites; the decision
        # rule never reads the entry, so DS stays empty (as in the scalar).
        return k, np.where(k == 2, np.uint64(0), self._linear_ds(up, k))


#: Exact-type dispatch: subclasses with different rules (primary-site
#: voting under weighted voting, say) must not inherit a kernel silently.
_KERNELS: dict[type, type[_Kernel]] = {
    MajorityVotingProtocol: _MajorityKernel,
    PrimarySiteVotingProtocol: _PrimarySiteKernel,
    PrimaryCopyProtocol: _PrimaryCopyKernel,
    DynamicVotingProtocol: _DynamicKernel,
    DynamicLinearProtocol: _DynamicLinearKernel,
    HybridProtocol: _HybridKernel,
    GeneralizedHybridProtocol: _GeneralizedHybridKernel,
    ModifiedHybridProtocol: _ModifiedHybridKernel,
    OptimalCandidateProtocol: _OptimalCandidateKernel,
}


def supported_protocols() -> tuple[str, ...]:
    """Registry names the vectorized backend can run."""
    return tuple(cls.name for cls in _KERNELS)


def _kernel_for(protocol: ReplicaControlProtocol) -> _Kernel:
    """The kernel matching a protocol instance (exact type match)."""
    kernel_cls = _KERNELS.get(type(protocol))
    if kernel_cls is None:
        known = ", ".join(sorted(supported_protocols()))
        raise SimulationError(
            f"no vectorized kernel for {type(protocol).__name__}; "
            f"supported protocols: {known} (use backend='scalar')"
        )
    return kernel_cls(protocol)


def ensure_supported(protocol: str, n_sites: int) -> None:
    """Raise :class:`SimulationError` unless the backend can run this job.

    Called by :func:`~repro.sim.montecarlo.estimate_availability` before
    fanning batches out, so unsupported jobs fail in the parent process
    with a clear message instead of inside a worker.
    """
    if n_sites > MAX_SITES:
        raise SimulationError(
            f"the vectorized backend packs site sets into a 64-bit mask and "
            f"supports at most {MAX_SITES} sites, got {n_sites}"
        )
    _kernel_for(make_protocol(protocol, site_names(n_sites)))


class BatchOutcome:
    """Per-replicate results of one vectorized batch (plain tuples).

    Tuples rather than arrays so the outcome pickles compactly across the
    process boundary and aggregation upstream is backend-agnostic.
    """

    __slots__ = ("estimates", "failures", "repairs", "accepted", "denied", "steps")

    def __init__(
        self,
        estimates: tuple[float, ...],
        failures: tuple[int, ...],
        repairs: tuple[int, ...],
        accepted: tuple[int, ...],
        denied: tuple[int, ...],
        steps: int,
    ) -> None:
        self.estimates = estimates
        self.failures = failures
        self.repairs = repairs
        self.accepted = accepted
        self.denied = denied
        self.steps = steps


class VectorizedReplicaBatch:
    """R replicates of the Section VI model, advanced together per step.

    Parameters
    ----------
    protocol:
        A registry name (custom factories cannot be introspected into a
        kernel; use the scalar backend for those).
    n_sites / ratio:
        Replicas and the repair/failure ratio mu/lambda (lambda = 1).
    seed / stream_names:
        Master seed and one stream name per replicate; replicate *i* draws
        from a Philox stream keyed by ``derive_seed(seed, stream_names[i])``
        and nothing else, making every trajectory a pure function of the
        pair -- independent of batch size, chunking, and workers.
    """

    def __init__(
        self,
        protocol: str,
        n_sites: int,
        ratio: float,
        *,
        seed: int,
        stream_names: Sequence[str],
    ) -> None:
        if not stream_names:
            raise SimulationError("a vectorized batch needs at least one replicate")
        if n_sites > MAX_SITES:
            raise SimulationError(
                f"the vectorized backend supports at most {MAX_SITES} sites"
            )
        sites = site_names(n_sites)
        instance = make_protocol(protocol, sites)
        self._kernel = _kernel_for(instance)
        rates = Rates.from_ratio(ratio)
        self._lam = rates.failure
        self._mu = rates.repair
        self._n = n_sites
        replicates = len(stream_names)
        self._generators = [
            np.random.Generator(np.random.Philox(key=derive_seed(seed, name)))
            for name in stream_names
        ]
        meta = instance.initial_metadata()
        index = {site: i for i, site in enumerate(sites)}
        initial_ds = np.uint64(
            sum(1 << index[site] for site in meta.distinguished)
        )
        all_sites = np.uint64((1 << n_sites) - 1)
        self._up = np.ones((replicates, n_sites), dtype=bool)
        self._up_mask = np.full(replicates, all_sites)
        self._k = np.bitwise_count(self._up_mask)
        self._current = np.full(replicates, all_sites)
        self._sc = np.full(replicates, meta.cardinality, dtype=np.int64)
        self._ds = np.full(replicates, initial_ds)
        self._available = np.ones(replicates, dtype=bool)
        self._weighted = np.zeros(replicates)
        self._observed = np.zeros(replicates)
        self._failures = np.zeros(replicates, dtype=np.int64)
        self._accepted = np.zeros(replicates, dtype=np.int64)
        self._denied = np.zeros(replicates, dtype=np.int64)
        self._bitvals = np.uint64(1) << np.arange(n_sites, dtype=np.uint64)
        self._rows = np.arange(replicates)
        self._steps = 0

    # ------------------------------------------------------------------ #
    # Inspection (read-only views, used by the parity tests)
    # ------------------------------------------------------------------ #

    @property
    def replicates(self) -> int:
        """Batch width R."""
        return len(self._rows)

    @property
    def steps(self) -> int:
        """Batched numpy steps executed so far."""
        return self._steps

    @property
    def up(self) -> np.ndarray:
        """(R, n) up/down state (copy)."""
        return self._up.copy()

    @property
    def current(self) -> np.ndarray:
        """(R, n) whether each site holds a current copy (fresh array)."""
        return (self._current[:, None] & self._bitvals) != 0

    @property
    def sc(self) -> np.ndarray:
        """(R,) update-sites cardinality of the current copies (copy)."""
        return self._sc.copy()

    @property
    def ds(self) -> np.ndarray:
        """(R,) distinguished-sites bitmask of the current copies (copy)."""
        return self._ds.copy()

    @property
    def available(self) -> np.ndarray:
        """(R,) whether each replicate's up set is distinguished (copy)."""
        return self._available.copy()

    # ------------------------------------------------------------------ #
    # Dynamics
    # ------------------------------------------------------------------ #

    def run(self, events: int, *, accumulate: bool) -> None:
        """Advance every replicate ``events`` steps.

        With ``accumulate`` the time-weighted availability integrand is
        collected (the post-burn-in phase); without, events are burned.
        """
        if events < 0:
            raise SimulationError(f"event count must be nonnegative: {events}")
        replicates = self.replicates
        remaining = events
        chunk_cap = max(1, _CHUNK_BUDGET // (2 * replicates))
        while remaining > 0:
            chunk = min(remaining, chunk_cap)
            # One (chunk, 2) draw per replicate, stacked to (R, chunk, 2):
            # each generator is consumed sequentially, so chunking never
            # changes a replicate's stream.
            uniforms = np.stack(
                [gen.random((chunk, 2)) for gen in self._generators]
            )
            for t in range(chunk):
                self._step(uniforms[:, t, 0], uniforms[:, t, 1], accumulate)
            remaining -= chunk

    def _step(
        self, u_wait: np.ndarray, u_pick: np.ndarray, accumulate: bool
    ) -> None:
        """One failure/repair event in every replicate, then the update."""
        up = self._up
        rates = np.where(up, self._lam, self._mu)
        total = rates.sum(axis=1)
        if self._mu == 0.0 and not total.all():
            raise SimulationError(
                "the system is absorbed: no site can fail or be repaired"
            )
        elapsed = -np.log1p(-u_wait) / total
        if accumulate:
            # The pre-event state has been in force for `elapsed`.
            gain = np.where(self._available, self._k / self._n, 0.0)
            self._weighted += gain * elapsed
            self._observed += elapsed
        # Competing exponentials: strike site i with probability
        # rate_i / total, via one uniform against the row-wise cumsum.
        cumulative = np.cumsum(rates, axis=1)
        pick = u_pick * total
        site = np.minimum(
            (cumulative <= pick[:, None]).sum(axis=1), self._n - 1
        )
        self._apply(site)

    def force_events(self, site: np.ndarray) -> None:
        """Toggle ``site[r]`` in each replicate r and apply the update.

        The deterministic half of :meth:`_step`, exposed so tests can
        replay *scripted* event sequences through the kernels and compare
        the state against the scalar oracle.  ``site`` holds one site
        index in ``[0, n)`` per replicate; anything else raises
        :class:`SimulationError`.
        """
        site = np.asarray(site)
        if site.shape != (self.replicates,) or not np.issubdtype(
            site.dtype, np.integer
        ):
            raise SimulationError(
                f"force_events needs one integer site index per replicate, "
                f"shape ({self.replicates},); got {site.dtype} of shape "
                f"{site.shape}"
            )
        bad = (site < 0) | (site >= self._n)
        if bad.any():
            raise SimulationError(
                f"site indices must lie in [0, {self._n}); got "
                f"{sorted({int(x) for x in site[bad]})}"
            )
        self._apply(site)

    def _apply(self, site: np.ndarray) -> None:
        """Toggle ``site[r]`` in every replicate r, then run the update."""
        rows = self._rows
        was_up = self._up[rows, site]
        self._up[rows, site] = ~was_up
        self._failures += was_up
        accept = self._update(self._bitvals[site])
        self._available = accept
        self._accepted += accept
        self._denied += (self._k != 0) & ~accept
        self._steps += 1

    def _update(self, struck: np.ndarray) -> np.ndarray:
        """Flip ``struck`` in the up mask and attempt the frequent update.

        Returns the accept vector.  A partition without a current copy is
        denied whatever the kernel returns (Theorem 1); an accepted update
        makes the partition the current set and installs its SC/DS.
        """
        up = self._up_mask ^ struck
        k = np.bitwise_count(up)
        live = up & self._current
        kernel = self._kernel
        accept = kernel.decide(up, live, k, self._sc, self._ds) & (live != 0)
        new_sc, new_ds = kernel.commit(up, k, self._sc, self._ds, struck)
        self._current = np.where(accept, up, self._current)
        self._sc = np.where(accept, new_sc, self._sc)
        self._ds = np.where(accept, new_ds, self._ds)
        self._up_mask = up
        self._k = k
        return accept

    def outcome(self) -> BatchOutcome:
        """Freeze the per-replicate results into a picklable outcome."""
        safe = np.where(self._observed > 0, self._observed, 1.0)
        estimates = np.where(self._observed > 0, self._weighted / safe, 0.0)
        # Every step toggles one site per replicate: a failure or a repair.
        repairs = self._steps - self._failures
        return BatchOutcome(
            estimates=tuple(float(x) for x in estimates),
            failures=tuple(int(x) for x in self._failures),
            repairs=tuple(int(x) for x in repairs),
            accepted=tuple(int(x) for x in self._accepted),
            denied=tuple(int(x) for x in self._denied),
            steps=self._steps,
        )


def simulate_batch(
    protocol: str,
    n_sites: int,
    ratio: float,
    *,
    events: int,
    burn_in_events: int,
    seed: int,
    stream_names: Sequence[str],
) -> BatchOutcome:
    """Run one batch of replicates: burn in, then accumulate availability.

    The vectorized counterpart of ``montecarlo._run_replicate`` for a whole
    batch at once; each replicate's estimate depends only on
    ``(seed, stream_names[i], protocol, n_sites, ratio, events,
    burn_in_events)``.
    """
    batch = VectorizedReplicaBatch(
        protocol, n_sites, ratio, seed=seed, stream_names=stream_names
    )
    batch.run(burn_in_events, accumulate=False)
    batch.run(events, accumulate=True)
    return batch.outcome()
