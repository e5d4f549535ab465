"""Deterministic profiling: folding sim-time spans into tables.

:class:`SpanProfiler` folds the spans a causal trace derives
(:func:`repro.obs.query.spans`) into per-name **inclusive** (span
duration) and **exclusive** (duration minus direct children) time
tables, plus per-stack exclusive totals exported in the collapsed-stack
text format flamegraph tooling reads (``parent;child value`` lines).
Sim-time durations are a deterministic function of the seed, so two
identically-seeded runs produce byte-identical folded profiles -- the
property the profile tests pin.

A profiler is installed for a region with :func:`profiling`; while one is
active ``repro trace`` folds the spans of the run it traced into it.
``repro profile trace ...`` runs a trace under a profiler and prints the
folded tables (docs/BENCHMARKING.md).  Wall-clock attribution is not
measured here: the benchmark's traced launches (``perfbench/``) time the
program's layers from outside it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from typing import TYPE_CHECKING

from ..errors import ObservabilityError

if TYPE_CHECKING:  # annotations only
    from .query import Span

__all__ = [
    "SpanProfiler",
    "active_profiler",
    "profiling",
    "parse_collapsed",
]


class SpanProfiler:
    """Folds closed spans into inclusive/exclusive tables and stack totals.

    The folding invariants (pinned by ``tests/obs/test_profile.py``):

    * ``inclusive(name)`` is the sum of the durations of every closed span
      called ``name``;
    * ``exclusive(name)`` is that sum minus the time spent in *direct*
      children, so summing exclusive time over all names recovers the
      total root-span time exactly (no double counting);
    * each collapsed-stack line carries the exclusive time of one stack
      path, so the lines also sum to the root total.

    Spans are folded in the order they close, children first, so a
    single pass suffices: a child's duration is charged to its parent's
    pending-children accumulator before the parent is folded.
    """

    def __init__(self) -> None:
        self._inclusive: dict[str, float] = {}
        self._exclusive: dict[str, float] = {}
        self._counts: dict[str, int] = {}
        self._stacks: dict[tuple[str, ...], float] = {}
        # Sim-time charged to already-closed direct children, keyed by the
        # parent span's identity while the parent is still open.
        self._pending_children: dict[int, float] = {}

    def fold(self, spans: Iterable[Span]) -> None:
        """Fold every closed span of ``spans``, in order; skip open ones."""
        for span in spans:
            if span.end is not None:
                self.record_span(span)

    def record_span(self, span: Span) -> None:
        """Fold one closed span; its children must be folded already."""
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

    def render(self) -> str:
        """Aligned text report of the span tables."""
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
def profiling(profiler: SpanProfiler | None = None) -> Iterator[SpanProfiler]:
    """Install ``profiler`` (or a fresh one) for the duration of the block.

    While installed, ``repro trace`` folds its spans into it; anything
    but a :class:`SpanProfiler` raises.  Restores the previous
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
