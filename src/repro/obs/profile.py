"""Deterministic profiling: span-forest folding and hot-path wall timers.

Two complementary views of where a run spends its time:

* **Sim-time spans.**  :class:`SpanProfiler` observes every
  :class:`~repro.obs.spans.Span` close and folds the span forest into
  per-name **inclusive** (span duration) and **exclusive** (duration minus
  direct children) time tables, plus per-stack exclusive totals exported in
  the collapsed-stack text format flamegraph tooling reads
  (``parent;child value`` lines).  Sim-time durations are a deterministic
  function of the seed, so two identically-seeded runs produce
  byte-identical folded profiles -- the property the profile tests pin.
* **Wall-clock hot paths.**  The analytic fast paths (batched
  ``np.linalg.solve``, the Horner sweep, the vectorized kernel batches,
  the process-pool fan-out) do not run on simulated time; they report
  through :func:`hotpath`, a near-zero-overhead wall timer backed by
  :mod:`repro.obs.clock`.  Wall attributions are **nondeterministic** and
  live in a separate table (:meth:`SpanProfiler.wall_table`), mirroring
  the deterministic/wall-clock split of metric snapshots.

A profiler is installed for a region with :func:`profiling`; while one is
active every :class:`~repro.obs.spans.SpanTracker` reports closes to it
(the hook in ``SpanTracker._on_close``) and every :func:`hotpath` timer
records.  With no profiler installed both hooks cost one global read.

``repro profile simulate ...`` runs a CLI invocation under a profiler and
prints the folded tables (docs/BENCHMARKING.md).
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from typing import TYPE_CHECKING

from ..errors import ObservabilityError
from . import clock

if TYPE_CHECKING:  # runtime import would cycle: spans hooks this module
    from .spans import Span

__all__ = [
    "SpanProfiler",
    "active_profiler",
    "profiling",
    "hotpath",
    "parse_collapsed",
]


class _WallTimer:
    """Context manager charging elapsed wall time to one hot-path name."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "SpanProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_WallTimer":
        self._start = clock.perf_seconds()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._profiler._record_wall(self._name, clock.perf_seconds() - self._start)


class _NullTimer:
    """Shared no-op timer returned by :func:`hotpath` when no profiler is on."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_TIMER = _NullTimer()


class SpanProfiler:
    """Folds span closes into inclusive/exclusive tables and stack totals.

    The folding invariants (pinned by ``tests/obs/test_profile.py``):

    * ``inclusive(name)`` is the sum of the durations of every closed span
      called ``name``;
    * ``exclusive(name)`` is that sum minus the time spent in *direct*
      children, so summing exclusive time over all names recovers the
      total root-span time exactly (no double counting);
    * each collapsed-stack line carries the exclusive time of one stack
      path, so the lines also sum to the root total.

    Spans close children-first (the tracker enforces LIFO), so a single
    pass over the close events suffices: a child's duration is charged to
    its parent's pending-children accumulator before the parent closes.
    """

    def __init__(self) -> None:
        self._inclusive: dict[str, float] = {}
        self._exclusive: dict[str, float] = {}
        self._counts: dict[str, int] = {}
        self._stacks: dict[tuple[str, ...], float] = {}
        # Sim-time charged to already-closed direct children, keyed by the
        # parent span's identity while the parent is still open.
        self._pending_children: dict[int, float] = {}
        self._wall_seconds: dict[str, float] = {}
        self._wall_counts: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Sim-time span folding
    # ------------------------------------------------------------------ #

    def record_span(self, span: Span) -> None:
        """Fold one closed span (called by ``SpanTracker._on_close``)."""
        duration = span.duration
        if duration is None:
            raise ObservabilityError(
                f"cannot profile open span {span.name!r}; close it first"
            )
        children = self._pending_children.pop(id(span), 0.0)
        exclusive = duration - children
        name = span.name
        self._inclusive[name] = self._inclusive.get(name, 0.0) + duration
        self._exclusive[name] = self._exclusive.get(name, 0.0) + exclusive
        self._counts[name] = self._counts.get(name, 0) + 1
        path = self._path(span)
        self._stacks[path] = self._stacks.get(path, 0.0) + exclusive
        parent = span.parent
        if parent is not None:
            self._pending_children[id(parent)] = (
                self._pending_children.get(id(parent), 0.0) + duration
            )

    @staticmethod
    def _path(span: Span) -> tuple[str, ...]:
        names = []
        node: Span | None = span
        while node is not None:
            names.append(node.name)
            node = node.parent
        return tuple(reversed(names))

    @property
    def span_count(self) -> int:
        """Closed spans folded so far."""
        return sum(self._counts.values())

    def inclusive(self) -> dict[str, float]:
        """Total duration per span name (children included), sorted by name."""
        return dict(sorted(self._inclusive.items()))

    def exclusive(self) -> dict[str, float]:
        """Self time per span name (direct children excluded), sorted."""
        return dict(sorted(self._exclusive.items()))

    def counts(self) -> dict[str, int]:
        """Closed-span count per name, sorted by name."""
        return dict(sorted(self._counts.items()))

    def stacks(self) -> dict[tuple[str, ...], float]:
        """Exclusive time per stack path (root first), sorted by path."""
        return dict(sorted(self._stacks.items()))

    def total(self) -> float:
        """Total profiled sim-time: the sum of all exclusive times.

        Equals the summed duration of the root spans (spans whose entire
        ancestry closed through this profiler), because every nested
        interval is counted exactly once.
        """
        return sum(self._exclusive.values())

    def collapsed_stack(self) -> str:
        """The folded profile in collapsed-stack text form.

        One line per stack path -- ``root;child;leaf <exclusive-time>`` --
        sorted by path, values formatted with :func:`repr`-exact ``%.9g``
        so :func:`parse_collapsed` round-trips the table within 1e-9
        relative precision.  Feed to flamegraph tooling directly.
        """
        return "\n".join(
            f"{';'.join(path)} {value:.9g}"
            for path, value in sorted(self._stacks.items())
        )

    # ------------------------------------------------------------------ #
    # Wall-clock hot paths
    # ------------------------------------------------------------------ #

    def wall(self, name: str) -> _WallTimer:
        """A context manager charging its wall-clock time to ``name``."""
        return _WallTimer(self, name)

    def _record_wall(self, name: str, seconds: float) -> None:
        self._wall_seconds[name] = self._wall_seconds.get(name, 0.0) + seconds
        self._wall_counts[name] = self._wall_counts.get(name, 0) + 1

    def wall_table(self) -> dict[str, dict[str, float]]:
        """Wall-clock attribution: ``{name: {seconds, calls}}``, sorted.

        Nondeterministic (machine-shaped) by construction -- keep it out
        of anything compared across seeded runs, exactly like
        wall-clock-marked gauges.
        """
        return {
            name: {"seconds": seconds, "calls": self._wall_counts[name]}
            for name, seconds in sorted(self._wall_seconds.items())
        }

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #

    def render(self) -> str:
        """Aligned text report: span tables first, wall hot paths after."""
        lines = []
        if self._counts:
            lines.append("sim-time spans (deterministic):")
            width = max(len(name) for name in self._counts)
            lines.append(
                f"  {'name':<{width}}  {'count':>5}  {'inclusive':>12}  "
                f"{'exclusive':>12}"
            )
            for name in sorted(self._counts):
                lines.append(
                    f"  {name:<{width}}  {self._counts[name]:>5}  "
                    f"{self._inclusive[name]:>12.4f}  "
                    f"{self._exclusive[name]:>12.4f}"
                )
        else:
            lines.append("sim-time spans: (none closed under the profiler)")
        if self._wall_seconds:
            lines.append("")
            lines.append("wall-clock hot paths (nondeterministic):")
            width = max(len(name) for name in self._wall_seconds)
            lines.append(f"  {'name':<{width}}  {'calls':>5}  {'seconds':>10}")
            for name in sorted(self._wall_seconds):
                lines.append(
                    f"  {name:<{width}}  {self._wall_counts[name]:>5}  "
                    f"{self._wall_seconds[name]:>10.4f}"
                )
        return "\n".join(lines)


def parse_collapsed(text: str) -> dict[tuple[str, ...], float]:
    """Parse a collapsed-stack export back into ``{path: value}``.

    The inverse of :meth:`SpanProfiler.collapsed_stack`; raises
    :class:`~repro.errors.ObservabilityError` on malformed lines.
    """
    stacks: dict[tuple[str, ...], float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        stack, _, value = line.rpartition(" ")
        if not stack:
            raise ObservabilityError(
                f"collapsed-stack line {lineno} has no value separator: {line!r}"
            )
        try:
            parsed = float(value)
        except ValueError as exc:
            raise ObservabilityError(
                f"collapsed-stack line {lineno} has a non-numeric value "
                f"{value!r}"
            ) from exc
        path = tuple(stack.split(";"))
        stacks[path] = stacks.get(path, 0.0) + parsed
    return stacks


_active: SpanProfiler | None = None


def active_profiler() -> SpanProfiler | None:
    """The installed profiler, or None (the default: profiling off)."""
    return _active


@contextmanager
def profiling(profiler: SpanProfiler | Mapping | None = None) -> Iterator[SpanProfiler]:
    """Install ``profiler`` (or a fresh one) for the duration of the block.

    While installed, every span close on any tracker and every
    :func:`hotpath` timer records into it.  Restores the previous
    profiler on exit, including on error; nesting installs work the
    obvious way (innermost wins).
    """
    global _active
    if profiler is None:
        profiler = SpanProfiler()
    if not isinstance(profiler, SpanProfiler):
        raise ObservabilityError(
            f"expected a SpanProfiler, got {type(profiler).__name__}"
        )
    previous = _active
    _active = profiler
    try:
        yield profiler
    finally:
        _active = previous


def hotpath(name: str) -> _WallTimer | _NullTimer:
    """A wall timer charging ``name`` in the active profiler (no-op when off).

    Usage at an instrumentation site::

        with hotpath("markov.solve.batched"):
            values = np.linalg.solve(stacked, rhs)

    The disabled cost is one module-global read and a shared singleton,
    so hot paths need no ``enabled`` guard of their own.
    """
    profiler = _active
    if profiler is None:
        return _NULL_TIMER
    return profiler.wall(name)
