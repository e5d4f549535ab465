"""Monte-Carlo estimation of protocol availability (experiment E9).

Runs independent replicates of :class:`StochasticReplicaSystem` under the
Section VI model and aggregates the time-weighted availability estimates
into a mean with a standard error, so the analytic Markov results can be
checked against the *actual protocol implementations* rather than against a
hand-derived chain only.

Replicates are embarrassingly parallel: replicate *i* draws every random
number from its own derived substream (``replicate:i:...``), so its
trajectory is a pure function of ``(seed, i, protocol, n, ratio)`` and
never of which process ran it or in what order.  ``workers`` fans the
replicates out through :mod:`repro.perf.executor`; the executors preserve
task order and the telemetry below is replayed from the collected
outcomes in replicate order, so a parallel run is **bitwise identical** to
a serial one -- same :class:`MonteCarloResult`, same deterministic metric
snapshot (docs/PERFORMANCE.md documents the contract, and the test suite
holds serial and 2-worker runs equal).

Two backends share this aggregation (docs/PERFORMANCE.md, "Backends"):

* ``"scalar"`` -- one :class:`StochasticReplicaSystem` per replicate, the
  reference oracle;
* ``"vectorized"`` -- :mod:`repro.sim.vectorized` advances whole *batches*
  of replicates per numpy step.  Batches are cut at a fixed ``batch_size``
  that does not depend on ``workers``, and each replicate still owns a
  private derived substream (``vector:replicate:i:...``), so vectorized
  results too are bitwise identical across batch sizes and worker counts.
  The two backends draw from different generator families and therefore
  agree *statistically* (same law, disjoint streams), not bitwise.
"""

from __future__ import annotations

import math
import pickle
import statistics
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from ..core.base import ReplicaControlProtocol
from ..core.registry import make_protocol
from ..errors import SimulationError
from ..obs.clock import Stopwatch
from ..obs.metrics import NULL_REGISTRY, MetricsRegistry
from ..perf.executor import make_executor, resolve_workers
from ..types import SiteId, site_names
from .failures import Rates
from .model import AvailabilityAccumulator, StochasticReplicaSystem
from .rng import RandomStreams
from .vectorized import ensure_supported, simulate_batch

__all__ = [
    "BACKENDS",
    "MonteCarloResult",
    "RunningCI",
    "estimate_availability",
]

#: Recognised ``backend=`` values, in ``mc.backend`` gauge-code order.
BACKENDS = ("scalar", "vectorized")

#: Replicates per vectorized batch when ``batch_size`` is not given.  A
#: fixed default (rather than one derived from ``workers``) keeps batch
#: boundaries -- and with them ``mc.vectorized.batches`` and every other
#: deterministic series -- independent of the machine the run lands on.
_DEFAULT_BATCH_SIZE = 256


@dataclass(frozen=True, slots=True)
class MonteCarloResult:
    """Aggregated Monte-Carlo availability estimate."""

    protocol: str
    n_sites: int
    ratio: float
    mean: float
    stderr: float
    replicates: int
    events_per_replicate: int
    backend: str = "scalar"

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation confidence interval (default ~95%)."""
        return self.mean - z * self.stderr, self.mean + z * self.stderr

    def agrees_with(self, expected: float, z: float = 3.89) -> bool:
        """True iff ``expected`` lies inside a wide (default ~99.99%) CI.

        Used by the validation benchmarks: analytic values should sit well
        inside the Monte-Carlo noise band.
        """
        low, high = self.confidence_interval(z)
        return low <= expected <= high


class RunningCI:
    """Welford's online mean/variance, driving the running-CI telemetry.

    ``estimate_availability`` replays one ``ci.half_width`` reading per
    replicate; recomputing ``statistics.stdev`` over the growing prefix
    made that replay O(R^2).  Welford's recurrence updates the mean and
    the sum of squared deviations in O(1) per observation, with the
    textbook numerical stability (no catastrophic cancellation of large
    near-equal sums).
    """

    __slots__ = ("_count", "_mean", "_m2", "z")

    def __init__(self, z: float = 1.96) -> None:
        self.z = z
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    @property
    def count(self) -> int:
        """Observations so far."""
        return self._count

    @property
    def mean(self) -> float:
        """Running mean (0.0 before the first observation)."""
        return self._mean

    def update(self, value: float) -> None:
        """Fold one observation into the running moments."""
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    def stderr(self) -> float | None:
        """Standard error of the mean (None until two observations)."""
        if self._count < 2:
            return None
        variance = self._m2 / (self._count - 1)
        return math.sqrt(variance) / math.sqrt(self._count)

    def half_width(self) -> float | None:
        """Current CI half-width ``z * stderr`` (None until defined)."""
        stderr = self.stderr()
        if stderr is None:
            return None
        return self.z * stderr


@dataclass(frozen=True, slots=True)
class _ReplicateTask:
    """Everything one replicate needs, picklable for the process pool.

    ``protocol`` is a registry name or a picklable factory; the RNG is
    *not* carried -- the worker re-derives the substream from
    ``(seed, stream_name)``, which is what makes the replicate's
    trajectory independent of where it runs.
    """

    protocol: str | Callable[[Sequence[SiteId]], ReplicaControlProtocol]
    stream_name: str
    n_sites: int
    ratio: float
    events: int
    burn_in_events: int
    seed: int


@dataclass(frozen=True, slots=True)
class _ReplicateOutcome:
    """One replicate's estimate plus the telemetry the parent replays.

    ``task_seconds`` is a wall-clock reading (worker compute time) and
    feeds only wall-clock-marked gauges.
    """

    estimate: float
    event_counts: tuple[tuple[str, int], ...]
    updates_accepted: int
    updates_denied: int
    task_seconds: float


@dataclass(frozen=True, slots=True)
class _VectorBatchTask:
    """One vectorized batch of replicates, picklable for the process pool.

    The unit of fan-out for ``backend="vectorized"``: workers receive
    whole batches, and each replicate inside re-derives its generator
    from ``(seed, stream_name)`` exactly as the scalar tasks do.
    """

    protocol: str
    stream_names: tuple[str, ...]
    n_sites: int
    ratio: float
    events: int
    burn_in_events: int
    seed: int


@dataclass(frozen=True, slots=True)
class _VectorBatchOutcome:
    """Per-replicate outcomes of one batch, plus the batch step count."""

    outcomes: tuple[_ReplicateOutcome, ...]
    steps: int


def _run_replicate(task: _ReplicateTask) -> _ReplicateOutcome:
    """Run one replicate (module-level so process pools can import it)."""
    stopwatch = Stopwatch()
    sites = site_names(task.n_sites)
    if callable(task.protocol):
        protocol = task.protocol(sites)
    else:
        protocol = make_protocol(task.protocol, sites)
    rng = RandomStreams(task.seed).stream(task.stream_name)
    system = StochasticReplicaSystem(protocol, Rates.from_ratio(task.ratio), rng)
    system.run(task.burn_in_events)
    accumulator = AvailabilityAccumulator(system)
    estimate = accumulator.run(task.events)
    return _ReplicateOutcome(
        estimate=estimate,
        event_counts=tuple(sorted(system.event_counts.items())),
        updates_accepted=system.updates_accepted,
        updates_denied=system.updates_denied,
        task_seconds=stopwatch.seconds,
    )


def _run_vector_batch(task: _VectorBatchTask) -> _VectorBatchOutcome:
    """Run one vectorized batch (module-level for process pools).

    The wall-clock cost of the batch is charged to its first replicate's
    ``task_seconds`` so the ``mc.parallel.speedup`` gauge sums worker
    compute time the same way it does for scalar replicates.
    """
    stopwatch = Stopwatch()
    batch = simulate_batch(
        task.protocol,
        task.n_sites,
        task.ratio,
        events=task.events,
        burn_in_events=task.burn_in_events,
        seed=task.seed,
        stream_names=task.stream_names,
    )
    seconds = stopwatch.seconds
    outcomes = []
    for index, estimate in enumerate(batch.estimates):
        counts = (
            ("site-failure", batch.failures[index]),
            ("site-repair", batch.repairs[index]),
        )
        outcomes.append(
            _ReplicateOutcome(
                estimate=estimate,
                # Match the scalar shape: kinds that never occurred are
                # absent, and the tuple is sorted by kind value.
                event_counts=tuple(
                    (kind, count) for kind, count in counts if count
                ),
                updates_accepted=batch.accepted[index],
                updates_denied=batch.denied[index],
                task_seconds=seconds if index == 0 else 0.0,
            )
        )
    return _VectorBatchOutcome(outcomes=tuple(outcomes), steps=batch.steps)


def estimate_availability(
    protocol: str | Callable[[Sequence[SiteId]], ReplicaControlProtocol],
    n_sites: int,
    ratio: float,
    *,
    replicates: int = 8,
    events: int = 20_000,
    burn_in_events: int = 1_000,
    seed: int = 2026,
    metrics: MetricsRegistry | None = None,
    workers: int | None = None,
    backend: str = "scalar",
    batch_size: int | None = None,
) -> MonteCarloResult:
    """Estimate the site availability of a protocol at one (n, mu/lambda).

    Parameters
    ----------
    protocol:
        A registry name (``"hybrid"``, ``"dynamic"``, ...) or a factory
        accepting the site list.  With ``workers > 1`` a factory must be
        picklable (registry names always are).  The vectorized backend
        accepts registry names only: a kernel is looked up by protocol
        type, which an opaque factory cannot provide.
    n_sites:
        Number of replicas.
    ratio:
        The repair/failure ratio mu/lambda (lambda is fixed at 1).
    replicates / events / burn_in_events:
        Independent runs, post-burn-in events per run, and discarded
        initial events per run.
    seed:
        Master seed; replicate *i* uses the derived stream ``replicate:i``
        (scalar) or ``vector:replicate:i`` (vectorized).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  Records
        the ``mc.*`` convergence telemetry (per-replicate estimates, the
        running 95% CI half-width, the backend, wall-clock events/sec)
        and the ``sim.*`` model counters (updates accepted/denied, events
        by kind) documented in docs/OBSERVABILITY.md.  Everything except
        the explicitly wall-clock-marked gauges is a deterministic
        function of the arguments -- and is identical for any ``workers``
        value, because the series are replayed in replicate order.
    workers:
        Worker processes for the replicate (scalar) or batch (vectorized)
        fan-out.  ``None`` consults the ``REPRO_WORKERS`` environment
        variable (default 1, serial); ``0`` means all available CPUs.
        Results are bitwise identical for every setting
        (docs/PERFORMANCE.md).
    backend:
        ``"scalar"`` (default, the reference oracle) or ``"vectorized"``
        (the structure-of-arrays backend in :mod:`repro.sim.vectorized`).
    batch_size:
        Replicates per vectorized batch (default 256).  Affects memory
        and throughput only, never results; rejected for the scalar
        backend, where it has no meaning.
    """
    if replicates < 2:
        raise SimulationError("need at least two replicates for a standard error")
    if events <= 0:
        raise SimulationError("need a positive number of events per replicate")
    if backend not in BACKENDS:
        known = ", ".join(BACKENDS)
        raise SimulationError(f"unknown backend {backend!r}; expected one of: {known}")
    if callable(protocol):
        name = getattr(protocol, "name", getattr(protocol, "__name__", "custom"))
    else:
        name = protocol
    worker_count = resolve_workers(workers)
    if backend == "vectorized":
        if callable(protocol):
            raise SimulationError(
                f"the vectorized backend needs a registry name, not the "
                f"factory {name!r}; use backend='scalar' for custom protocols"
            )
        if batch_size is not None and batch_size <= 0:
            raise SimulationError(f"batch size must be positive: {batch_size}")
        ensure_supported(name, n_sites)
    elif batch_size is not None:
        raise SimulationError("batch_size only applies to backend='vectorized'")
    if backend == "scalar" and worker_count > 1 and callable(protocol):
        try:
            pickle.dumps(protocol)
        except Exception as exc:
            raise SimulationError(
                f"protocol factory {name!r} is not picklable; parallel "
                "replicates need a registry name or a module-level factory"
            ) from exc
    registry = metrics if metrics is not None else NULL_REGISTRY
    mc = registry.scope("mc")
    stopwatch = Stopwatch() if registry.enabled else None
    executor = make_executor(worker_count)
    vector_steps = 0
    vector_batches = 0
    if backend == "vectorized":
        stream_names = [
            f"vector:replicate:{index}:{name}:{n_sites}:{ratio}"
            for index in range(replicates)
        ]
        width = batch_size if batch_size is not None else _DEFAULT_BATCH_SIZE
        batch_tasks = [
            _VectorBatchTask(
                protocol=str(name),
                stream_names=tuple(stream_names[start : start + width]),
                n_sites=n_sites,
                ratio=ratio,
                events=events,
                burn_in_events=burn_in_events,
                seed=seed,
            )
            for start in range(0, replicates, width)
        ]
        batch_outcomes = executor.map(_run_vector_batch, batch_tasks)
        vector_batches = len(batch_outcomes)
        vector_steps = sum(batch.steps for batch in batch_outcomes)
        outcomes = [
            outcome for batch in batch_outcomes for outcome in batch.outcomes
        ]
    else:
        tasks = [
            _ReplicateTask(
                protocol=protocol if callable(protocol) else name,
                stream_name=f"replicate:{index}:{name}:{n_sites}:{ratio}",
                n_sites=n_sites,
                ratio=ratio,
                events=events,
                burn_in_events=burn_in_events,
                seed=seed,
            )
            for index in range(replicates)
        ]
        outcomes = executor.map(_run_replicate, tasks)
    estimates = [outcome.estimate for outcome in outcomes]
    if registry.enabled:
        # Replay the per-replicate series in replicate order: the
        # deterministic snapshot must not depend on worker scheduling.
        running = RunningCI()
        for outcome in outcomes:
            running.update(outcome.estimate)
            mc.counter("replicates").inc()
            mc.counter("events").inc(events + burn_in_events)
            mc.histogram("replicate.estimate").observe(outcome.estimate)
            for kind, count in outcome.event_counts:
                registry.counter(f"sim.event.{kind}").inc(count)
            registry.counter("sim.updates.accepted").inc(outcome.updates_accepted)
            registry.counter("sim.updates.denied").inc(outcome.updates_denied)
            half = running.half_width()
            if half is not None:
                mc.gauge("ci.half_width").set(half)
    mean = statistics.fmean(estimates)
    stderr = statistics.stdev(estimates) / math.sqrt(replicates)
    if registry.enabled:
        mc.gauge("mean").set(mean)
        mc.gauge("stderr").set(stderr)
        # The backend is part of the experiment (encoded by BACKENDS
        # index: 0 = scalar, 1 = vectorized), so it lives in the
        # deterministic snapshot, unlike the machine-shaped gauges below.
        mc.gauge("backend").set(BACKENDS.index(backend))
        if backend == "vectorized":
            mc.counter("vectorized.steps").inc(vector_steps)
            mc.counter("vectorized.batches").inc(vector_batches)
        # Worker count and speedup are wall-clock-marked: they describe
        # the machine the run landed on (REPRO_WORKERS, CPU count), not
        # the experiment, so they stay out of deterministic snapshots.
        mc.gauge("workers", wall_clock=True).set(worker_count)
        assert stopwatch is not None
        elapsed = stopwatch.seconds
        mc.gauge("wall_time_s", wall_clock=True).set(elapsed)
        if elapsed > 0:
            total = replicates * (events + burn_in_events)
            mc.gauge("events_per_sec", wall_clock=True).set(total / elapsed)
            busy = sum(outcome.task_seconds for outcome in outcomes)
            mc.gauge("parallel.speedup", wall_clock=True).set(busy / elapsed)
    return MonteCarloResult(
        protocol=str(name),
        n_sites=n_sites,
        ratio=ratio,
        mean=mean,
        stderr=stderr,
        replicates=replicates,
        events_per_replicate=events,
        backend=backend,
    )
