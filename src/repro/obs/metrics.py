"""Structured metrics: counters, gauges, and histograms with named scopes.

A :class:`MetricsRegistry` is the write side of the telemetry subsystem:
instrumented code asks it for a named instrument and updates it, and the
read side (`repro simulate --metrics`, run manifests, tests) takes a
deterministic :meth:`~MetricsRegistry.snapshot`.

Two properties are load-bearing:

* **Near-zero overhead when disabled.**  A disabled registry hands out
  module-level null instruments -- no per-name allocation, no dictionary
  growth, and every update is a no-op method on a shared singleton.  Hot
  paths additionally guard with :attr:`MetricsRegistry.enabled` so they do
  not even format metric names.
* **Deterministic snapshots.**  Snapshots are sorted by name and exclude
  instruments registered as wall-clock-derived (throughput gauges), so two
  identically-seeded runs produce byte-identical metric sections; the
  wall-clock instruments surface separately through
  :meth:`~MetricsRegistry.wall_clock_snapshot`.

Metric names are dotted paths (``netsim.message.delivered.VoteReply``);
:meth:`~MetricsRegistry.scope` prefixes a component so subsystems can name
metrics locally.  The module-level :func:`global_registry` (disabled by
default, swapped in with :func:`use`) lets deep layers such as the Markov
solvers report without threading a registry through every signature.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from contextlib import contextmanager

from ..errors import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "HISTOGRAM_QUANTILES",
    "Histogram",
    "MetricsRegistry",
    "MetricsScope",
    "NULL_REGISTRY",
    "global_registry",
    "use",
]


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "_value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be nonnegative)."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        self._value += amount

    @property
    def value(self) -> int:
        """Current count."""
        return self._value

    def describe(self) -> dict:
        """Snapshot entry for this instrument."""
        return {"type": "counter", "value": self._value}


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "wall_clock", "_value")

    kind = "gauge"

    def __init__(self, name: str, wall_clock: bool = False) -> None:
        self.name = name
        self.wall_clock = wall_clock
        self._value: float | None = None

    def set(self, value: float) -> None:
        """Record the latest value."""
        self._value = float(value)

    @property
    def value(self) -> float | None:
        """Latest recorded value (None if never set)."""
        return self._value

    def describe(self) -> dict:
        """Snapshot entry for this instrument."""
        return {"type": "gauge", "value": self._value}


#: Quantiles every histogram snapshot reports (nearest-rank).
HISTOGRAM_QUANTILES = (50, 90, 99)


class Histogram:
    """Exact summary of observations: count / sum / min / max / mean plus
    deterministic nearest-rank quantiles (p50 / p90 / p99).

    No buckets and no sampling: the recorded values are kept, so the
    summary -- quantiles included -- is exact and deterministic, which is
    what snapshots, manifests, and bench records need.  The memory cost is
    one float per observation; the series recorded here (per-replicate
    estimates, span durations, solve sizes) are thousands of points at
    most, never per-event hot loops.
    """

    __slots__ = ("name", "_count", "_sum", "_min", "_max", "_values")

    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._values: list[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self._count += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        self._values.append(value)

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def mean(self) -> float | None:
        """Mean observation (None if empty)."""
        if self._count == 0:
            return None
        return self._sum / self._count

    def quantile(self, q: float) -> float | None:
        """The nearest-rank ``q``-th percentile (None if empty).

        Nearest-rank is the deterministic textbook definition: the value
        at (1-indexed) rank ``ceil(q/100 * count)`` of the sorted
        observations -- always an observed value, never an interpolation,
        so two identically-seeded runs agree bit-for-bit.
        """
        if not self._values:
            return None
        if not 0 < q <= 100:
            raise ObservabilityError(
                f"quantile must be in (0, 100], got {q!r}"
            )
        ordered = sorted(self._values)
        rank = -(-q * len(ordered) // 100)  # ceil without importing math
        return ordered[int(rank) - 1]

    def describe(self) -> dict:
        """Snapshot entry for this instrument."""
        entry = {
            "type": "histogram",
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "mean": self.mean,
        }
        for q in HISTOGRAM_QUANTILES:
            entry[f"p{q}"] = self.quantile(q)
        return entry


class _NullCounter(Counter):
    """Shared no-op counter handed out by disabled registries."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:  # noqa: ARG002 - intentional no-op
        pass


class _NullGauge(Gauge):
    """Shared no-op gauge handed out by disabled registries."""

    __slots__ = ()

    def set(self, value: float) -> None:  # noqa: ARG002 - intentional no-op
        pass


class _NullHistogram(Histogram):
    """Shared no-op histogram handed out by disabled registries."""

    __slots__ = ()

    def observe(self, value: float) -> None:  # noqa: ARG002 - intentional no-op
        pass


_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null")


class MetricsRegistry:
    """Instrument factory and snapshot source.

    Instruments are created on first use and shared thereafter; asking for
    an existing name with a different instrument type raises
    :class:`~repro.errors.ObservabilityError` (silent type confusion would
    corrupt the series).
    """

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = enabled
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    @property
    def enabled(self) -> bool:
        """Whether updates are recorded (hot paths guard on this)."""
        return self._enabled

    # ------------------------------------------------------------------ #
    # Instrument factories
    # ------------------------------------------------------------------ #

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        if not self._enabled:
            return _NULL_COUNTER
        return self._get(name, Counter)

    def gauge(self, name: str, wall_clock: bool = False) -> Gauge:
        """The gauge called ``name``; ``wall_clock`` marks it nondeterministic."""
        if not self._enabled:
            return _NULL_GAUGE
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = Gauge(name, wall_clock=wall_clock)
            self._instruments[name] = instrument
        elif not isinstance(instrument, Gauge):
            raise ObservabilityError(
                f"metric {name!r} already registered as {instrument.kind}"
            )
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        if not self._enabled:
            return _NULL_HISTOGRAM
        return self._get(name, Histogram)

    def _get(self, name, cls):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name)
            self._instruments[name] = instrument
        elif type(instrument) is not cls:
            raise ObservabilityError(
                f"metric {name!r} already registered as {instrument.kind}"
            )
        return instrument

    def scope(self, prefix: str) -> "MetricsScope":
        """A view of this registry that prefixes every name with ``prefix.``."""
        return MetricsScope(self, prefix)

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #

    def names(self) -> tuple[str, ...]:
        """All registered metric names, sorted."""
        return tuple(sorted(self._instruments))

    def snapshot(self) -> dict[str, dict]:
        """Deterministic state of every non-wall-clock instrument, by name."""
        return {
            name: instrument.describe()
            for name, instrument in sorted(self._instruments.items())
            if not (isinstance(instrument, Gauge) and instrument.wall_clock)
        }

    def wall_clock_snapshot(self) -> dict[str, dict]:
        """State of the wall-clock-derived instruments (nondeterministic)."""
        return {
            name: instrument.describe()
            for name, instrument in sorted(self._instruments.items())
            if isinstance(instrument, Gauge) and instrument.wall_clock
        }

    def render(self) -> str:
        """Aligned ``name  type  value`` lines for terminal display."""
        rows = []
        for name, entry in {
            **self.snapshot(),
            **self.wall_clock_snapshot(),
        }.items():
            if entry["type"] == "histogram":
                value = (
                    f"count={entry['count']} sum={entry['sum']:g} "
                    f"min={_fmt(entry['min'])} max={_fmt(entry['max'])} "
                    f"p50={_fmt(entry['p50'])} p99={_fmt(entry['p99'])}"
                )
            else:
                value = _fmt(entry["value"])
            rows.append((name, entry["type"], value))
        if not rows:
            return "(no metrics recorded)"
        width_name = max(len(r[0]) for r in rows)
        width_type = max(len(r[1]) for r in rows)
        return "\n".join(
            f"{name:<{width_name}}  {kind:<{width_type}}  {value}"
            for name, kind, value in sorted(rows)
        )


def _fmt(value: float | int | None) -> str:
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{value:g}"


class MetricsScope:
    """A registry view with a fixed name prefix (``prefix.name``)."""

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix

    @property
    def enabled(self) -> bool:
        """Whether the underlying registry records updates."""
        return self._registry.enabled

    def counter(self, name: str) -> Counter:
        """Prefixed counter."""
        return self._registry.counter(f"{self._prefix}.{name}")

    def gauge(self, name: str, wall_clock: bool = False) -> Gauge:
        """Prefixed gauge."""
        return self._registry.gauge(f"{self._prefix}.{name}", wall_clock=wall_clock)

    def histogram(self, name: str) -> Histogram:
        """Prefixed histogram."""
        return self._registry.histogram(f"{self._prefix}.{name}")

    def scope(self, prefix: str) -> "MetricsScope":
        """A nested scope (``prefix`` appended to this scope's prefix)."""
        return MetricsScope(self._registry, f"{self._prefix}.{prefix}")


#: The shared disabled registry: safe default for optional ``metrics``
#: parameters, hands out null instruments only.
NULL_REGISTRY = MetricsRegistry(enabled=False)

_global: MetricsRegistry = NULL_REGISTRY


def global_registry() -> MetricsRegistry:
    """The process-wide registry deep layers report to (disabled by default)."""
    return _global


@contextmanager
def use(registry: MetricsRegistry | Mapping | None) -> Iterator[MetricsRegistry]:
    """Install ``registry`` as the global registry for the duration.

    ``None`` leaves the current global in place (convenient for optional
    CLI flags).  Restores the previous global on exit, including on error.
    """
    global _global
    if registry is None:
        yield _global
        return
    if not isinstance(registry, MetricsRegistry):
        raise ObservabilityError(
            f"expected a MetricsRegistry, got {type(registry).__name__}"
        )
    previous = _global
    _global = registry
    try:
        yield registry
    finally:
        _global = previous
