"""The paper's stochastic availability model as an executable system.

Section VI-B's five assumptions, as code:

1. links are infallible -- the partition of interest is simply the set of
   up sites;
2. & 3. failures/repairs are independent Poisson processes with rates
   lambda and mu (:class:`~repro.sim.failures.FailureRepairSampler`);
4. updates are instantaneous -- an accepted update changes state atomically;
5. updates are frequent -- after *every* failure or repair, an update
   arrives at a functioning site and is processed before the next event.

:class:`StochasticReplicaSystem` drives a real protocol object through this
regime, maintaining genuine per-site metadata.  It is therefore both the
Monte-Carlo engine behind experiment E9 and the ground truth that the
Markov chains are validated against (the automatic chain builder in
:mod:`repro.markov.builder` explores the same dynamics exhaustively).
"""

from __future__ import annotations


from ..core.base import ReplicaControlProtocol
from ..core.decision import UpdateContext
from ..core.metadata import ReplicaMetadata
from ..errors import SimulationError
from ..types import SiteId
from .events import Event, EventKind
from .failures import FailureRepairSampler, PerSiteRates, Rates
from .rng import RandomStreams, RngStream

__all__ = ["StochasticReplicaSystem", "AvailabilityAccumulator"]


class StochasticReplicaSystem:
    """A protocol instance living inside the Section VI failure model.

    Parameters
    ----------
    protocol:
        Any protocol from :mod:`repro.core`.
    rates:
        The (lambda, mu) failure/repair rates -- homogeneous
        :class:`Rates` or heterogeneous :class:`PerSiteRates` (the
        Section VII challenge model).
    rng:
        Source of randomness: a named substream obtained from
        :class:`~repro.sim.rng.RandomStreams`, or a ``RandomStreams``
        family itself, in which case the system draws from its dedicated
        ``"system"`` substream.
    """

    def __init__(
        self,
        protocol: ReplicaControlProtocol,
        rates: Rates | PerSiteRates,
        rng: RngStream | RandomStreams,
    ) -> None:
        if isinstance(rng, RandomStreams):
            rng = rng.stream("system")
        self._protocol = protocol
        self._sampler = FailureRepairSampler(sorted(protocol.sites), rates, rng)
        self._copies: dict[SiteId, ReplicaMetadata] = dict.fromkeys(
            protocol.sites, protocol.initial_metadata()
        )
        self._available = True  # all sites up and fresh: trivially a quorum
        self._updates_accepted = 0
        self._updates_denied = 0
        self._event_counts: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    @property
    def protocol(self) -> ReplicaControlProtocol:
        """The protocol under test."""
        return self._protocol

    @property
    def time(self) -> float:
        """Current simulation time."""
        return self._sampler.time

    @property
    def up(self) -> frozenset[SiteId]:
        """Currently functioning sites."""
        return self._sampler.up

    @property
    def available(self) -> bool:
        """Whether the current up set is a distinguished partition."""
        return self._available

    @property
    def copies(self) -> dict[SiteId, ReplicaMetadata]:
        """Snapshot of all per-site metadata."""
        return dict(self._copies)

    @property
    def updates_accepted(self) -> int:
        """Updates committed so far (one per event while available)."""
        return self._updates_accepted

    @property
    def updates_denied(self) -> int:
        """Update attempts denied so far."""
        return self._updates_denied

    @property
    def event_counts(self) -> dict[str, int]:
        """Processed events by kind value (``site-failure`` etc.)."""
        return dict(self._event_counts)

    # ------------------------------------------------------------------ #
    # Dynamics
    # ------------------------------------------------------------------ #

    def step(self) -> Event:
        """Process one failure/repair event, then the frequent update.

        Returns the failure/repair event.  The frequent-update assumption
        is applied exactly: the partition of all up sites attempts an
        update immediately after the event; if the partition is
        distinguished, the new metadata (and implicitly the catch-up of
        stale members) is installed at every up site.
        """
        event = self._sampler.next_event()
        kind = event.kind.value
        self._event_counts[kind] = self._event_counts.get(kind, 0) + 1
        up = self._sampler.up
        if not up:
            self._available = False
            return event
        context = UpdateContext(
            recent_failure=(
                event.subject if event.kind is EventKind.SITE_FAILURE else None
            )
        )
        outcome = self._protocol.attempt_update(up, self._copies, context)
        if outcome.accepted:
            assert outcome.metadata is not None
            for site in up:
                self._copies[site] = outcome.metadata
            self._updates_accepted += 1
            self._available = True
        else:
            self._updates_denied += 1
            self._available = False
        return event

    def run(self, events: int) -> None:
        """Process ``events`` failure/repair events."""
        if events < 0:
            raise SimulationError(f"event count must be nonnegative: {events}")
        for _ in range(events):
            self.step()


class AvailabilityAccumulator:
    """Time-weighted estimator of the paper's site availability measure.

    The measure is the long-run probability that an update arriving at a
    uniformly random site at a random time succeeds: the arrival site must
    be up and inside the distinguished partition.  Between consecutive
    events the system state is constant, so the estimator integrates
    ``(k/n) * 1[available]`` against elapsed time, where *k* is the number
    of up sites.

    ``burn_in`` time is discarded to reduce initial-state bias (the system
    starts with all sites up).
    """

    def __init__(self, system: StochasticReplicaSystem, burn_in: float = 0.0) -> None:
        if burn_in < 0:
            raise SimulationError(f"burn-in must be nonnegative: {burn_in}")
        self._system = system
        self._burn_in = burn_in
        self._weighted_time = 0.0
        self._observed_time = 0.0
        self._last_time = system.time

    @property
    def observed_time(self) -> float:
        """Total post-burn-in time integrated so far."""
        return self._observed_time

    def run(self, events: int) -> float:
        """Advance the system ``events`` steps and return the estimate."""
        for _ in range(events):
            # The state *before* the event has been in force since _last_time.
            k = len(self._system.up)
            n = self._system.protocol.n_sites
            gain = (k / n) if self._system.available else 0.0
            event = self._system.step()
            start = max(self._last_time, self._burn_in)
            end = event.time
            if end > start:
                self._weighted_time += gain * (end - start)
                self._observed_time += end - start
            self._last_time = end
        return self.estimate()

    def estimate(self) -> float:
        """Current availability estimate (0 if nothing observed yet)."""
        if self._observed_time <= 0:
            return 0.0
        return self._weighted_time / self._observed_time
