"""Noise-aware comparison of bench records: the perf-regression gate.

Wall-clock benchmark numbers are noisy -- CI machines differ, caches are
cold, neighbours steal cycles -- so the gate is tolerance-based rather
than exact, with three layers of defence against false alarms:

* **relative tolerance** (default 35%): a timing must move beyond
  ``tolerance`` relative to the baseline before it counts at all;
* **absolute floors**: timings under :attr:`Tolerance.floor_seconds`
  (or rates whose baseline wall time was that small) are too short to
  measure reliably and are reported as ``skipped``;
* **metric classes**: only the *protected* classes hard-fail the build
  -- throughput (``*_per_sec``, higher is better; ``events_per_sec`` is
  the contract ROADMAP protects) and the solve-batch timings
  (``solve``/``batch`` seconds).  Everything else soft-warns, so a noisy
  auxiliary timing cannot turn CI red.

Determinism drift is checked separately: two records of the same scenario
at the same seed should agree on their deterministic metric snapshot;
when they do not (the code changed behaviour, not just speed), the
comparison reports a ``drift`` warning naming the series.

``repro bench compare BASELINE CURRENT`` wires this into the CLI; the CI
perf-gate job fails the build on any hard regression
(docs/BENCHMARKING.md documents the policy knobs).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum

from ..errors import BenchError
from .history import latest_per_scenario
from .record import BenchRecord

__all__ = [
    "DeltaStatus",
    "MetricClass",
    "Tolerance",
    "TimingDelta",
    "BenchComparison",
    "classify_timing",
    "compare_records",
    "compare_runs",
    "render_comparison",
]


class MetricClass(Enum):
    """How a timing is compared and whether it can fail the build."""

    #: Seconds-like: lower is better; protected when solve/batch-shaped.
    SECONDS = "seconds"
    #: Rate-like (``*_per_sec``): higher is better.
    RATE = "rate"


class DeltaStatus(Enum):
    """Outcome of one timing comparison."""

    OK = "ok"
    IMPROVED = "improved"
    WARN = "warn"
    HARD_FAIL = "hard-fail"
    SKIPPED = "skipped"


@dataclass(frozen=True)
class Tolerance:
    """The gate's policy knobs (see module docstring)."""

    #: Relative movement a timing may show before it is a regression.
    relative: float = 0.35
    #: Seconds below which a timing is noise and is never compared.
    floor_seconds: float = 0.005
    #: Substrings of timing names that belong to the *protected* (hard
    #: fail) classes: the events/sec throughput contract and the batched
    #: solve-path timing.  Deliberately narrow -- the ``profile.*``
    #: hot-path attributions a record may carry stay soft.
    hard_patterns: tuple[str, ...] = ("events_per_sec", "solve_batch")

    def __post_init__(self) -> None:
        if not 0 < self.relative < 1:
            raise BenchError(
                f"relative tolerance must be in (0, 1), got {self.relative}"
            )
        if self.floor_seconds < 0:
            raise BenchError(
                f"floor_seconds must be nonnegative, got {self.floor_seconds}"
            )

    def is_hard(self, timing_name: str) -> bool:
        """Whether a regression in ``timing_name`` fails the build."""
        return any(pattern in timing_name for pattern in self.hard_patterns)


def classify_timing(name: str) -> MetricClass:
    """Rate vs seconds, by naming convention (``*_per_sec`` is a rate)."""
    return MetricClass.RATE if name.endswith("_per_sec") else MetricClass.SECONDS


@dataclass(frozen=True)
class TimingDelta:
    """One timing's baseline-vs-current verdict."""

    scenario: str
    name: str
    metric_class: MetricClass
    baseline: float
    current: float
    status: DeltaStatus
    detail: str = ""

    @property
    def ratio(self) -> float | None:
        """current / baseline (None when the baseline is zero)."""
        if self.baseline == 0:
            return None
        return self.current / self.baseline


@dataclass(frozen=True)
class BenchComparison:
    """Every delta plus the headline verdict and exit code."""

    deltas: tuple[TimingDelta, ...]
    drift: tuple[str, ...] = field(default_factory=tuple)
    missing: tuple[str, ...] = field(default_factory=tuple)

    @property
    def hard_failures(self) -> tuple[TimingDelta, ...]:
        """Deltas that must fail the build."""
        return tuple(
            d for d in self.deltas if d.status is DeltaStatus.HARD_FAIL
        )

    @property
    def warnings(self) -> tuple[TimingDelta, ...]:
        """Soft regressions (reported, never fatal)."""
        return tuple(d for d in self.deltas if d.status is DeltaStatus.WARN)

    @property
    def ok(self) -> bool:
        """True when no hard regression was found."""
        return not self.hard_failures

    @property
    def exit_code(self) -> int:
        """0 clean (warnings allowed), 1 on any hard regression."""
        return 0 if self.ok else 1


def _compare_timing(
    scenario: str,
    name: str,
    baseline: float,
    current: float,
    baseline_seconds: float,
    tolerance: Tolerance,
) -> TimingDelta:
    metric_class = classify_timing(name)
    kwargs = dict(
        scenario=scenario,
        name=name,
        metric_class=metric_class,
        baseline=baseline,
        current=current,
    )
    floor = tolerance.floor_seconds
    too_small = (
        baseline <= floor or current <= floor
        if metric_class is MetricClass.SECONDS
        # A rate over a sub-floor wall time is as unmeasurable as the
        # wall time itself.
        else baseline_seconds <= floor or baseline <= 0 or current <= 0
    )
    if too_small:
        return TimingDelta(
            **kwargs,
            status=DeltaStatus.SKIPPED,
            detail=f"below the {floor:g}s measurement floor",
        )
    if metric_class is MetricClass.RATE:
        regressed = current < baseline * (1.0 - tolerance.relative)
        improved = current > baseline * (1.0 + tolerance.relative)
    else:
        regressed = current > baseline * (1.0 + tolerance.relative)
        improved = current < baseline * (1.0 - tolerance.relative)
    if regressed:
        hard = tolerance.is_hard(name)
        change = current / baseline
        return TimingDelta(
            **kwargs,
            status=DeltaStatus.HARD_FAIL if hard else DeltaStatus.WARN,
            detail=(
                f"{change:.2f}x of baseline, beyond the "
                f"{tolerance.relative:.0%} tolerance"
                + ("" if hard else " (unprotected: warning only)")
            ),
        )
    if improved:
        return TimingDelta(
            **kwargs,
            status=DeltaStatus.IMPROVED,
            detail=f"{current / baseline:.2f}x of baseline",
        )
    return TimingDelta(**kwargs, status=DeltaStatus.OK)


def _baseline_seconds(record: BenchRecord) -> float:
    """The record's dominant wall time (floor-gating for its rates)."""
    seconds = [
        value
        for name, value in record.timings.items()
        if classify_timing(name) is MetricClass.SECONDS
    ]
    return max(seconds) if seconds else float("inf")


def _determinism_drift(
    baseline: BenchRecord, current: BenchRecord
) -> Iterable[str]:
    """Deterministic metric series that changed between seeded runs."""
    if baseline.seed != current.seed or dict(baseline.params) != dict(
        current.params
    ):
        return  # different experiment; drift is expected, not reportable
    for name in sorted(set(baseline.metrics) | set(current.metrics)):
        before = baseline.metrics.get(name)
        after = current.metrics.get(name)
        if before != after:
            yield f"{current.scenario}: {name}"


def compare_records(
    baseline: BenchRecord,
    current: BenchRecord,
    tolerance: Tolerance | None = None,
) -> BenchComparison:
    """Compare one scenario's baseline and current records."""
    if baseline.scenario != current.scenario:
        raise BenchError(
            f"cannot compare different scenarios: {baseline.scenario!r} "
            f"vs {current.scenario!r}"
        )
    tolerance = tolerance if tolerance is not None else Tolerance()
    floor_seconds = _baseline_seconds(baseline)
    deltas = []
    missing = []
    for name in sorted(baseline.timings):
        if name not in current.timings:
            missing.append(f"{current.scenario}: {name} (gone from current)")
            continue
        deltas.append(
            _compare_timing(
                current.scenario,
                name,
                float(baseline.timings[name]),
                float(current.timings[name]),
                floor_seconds,
                tolerance,
            )
        )
    return BenchComparison(
        deltas=tuple(deltas),
        drift=tuple(_determinism_drift(baseline, current)),
        missing=tuple(missing),
    )


def compare_runs(
    baseline: Sequence[BenchRecord],
    current: Sequence[BenchRecord],
    tolerance: Tolerance | None = None,
) -> BenchComparison:
    """Compare two record sets scenario-by-scenario (latest record wins).

    Scenarios present only in the baseline are reported as missing (a
    deleted benchmark should be a deliberate act, not an accident);
    scenarios present only in the current run are new and compare clean.
    """
    tolerance = tolerance if tolerance is not None else Tolerance()
    base_latest = latest_per_scenario(baseline)
    curr_latest = latest_per_scenario(current)
    deltas: list[TimingDelta] = []
    drift: list[str] = []
    missing: list[str] = []
    for scenario, base_record in base_latest.items():
        curr_record = curr_latest.get(scenario)
        if curr_record is None:
            missing.append(f"{scenario} (scenario gone from current run)")
            continue
        result = compare_records(base_record, curr_record, tolerance)
        deltas.extend(result.deltas)
        drift.extend(result.drift)
        missing.extend(result.missing)
    return BenchComparison(
        deltas=tuple(deltas), drift=tuple(drift), missing=tuple(missing)
    )


_STATUS_MARKS = {
    DeltaStatus.OK: "ok",
    DeltaStatus.IMPROVED: "improved",
    DeltaStatus.WARN: "WARN",
    DeltaStatus.HARD_FAIL: "FAIL",
    DeltaStatus.SKIPPED: "skipped",
}


def render_comparison(
    comparison: BenchComparison, fmt: str = "text"
) -> str:
    """Render a comparison as an aligned text table or GitHub markdown."""
    if fmt not in ("text", "md"):
        raise BenchError(f"unknown report format {fmt!r} (text or md)")
    rows = [
        (
            delta.scenario,
            delta.name,
            f"{delta.baseline:.6g}",
            f"{delta.current:.6g}",
            "-" if delta.ratio is None else f"{delta.ratio:.2f}x",
            _STATUS_MARKS[delta.status],
            delta.detail,
        )
        for delta in comparison.deltas
    ]
    header = ("scenario", "timing", "baseline", "current", "ratio", "status", "detail")
    lines = []
    if fmt == "md":
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join(" --- " for _ in header) + "|")
        lines.extend("| " + " | ".join(row) + " |" for row in rows)
    else:
        widths = [
            max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
            for i in range(len(header))
        ]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
        lines.extend(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            for row in rows
        )
    if comparison.drift:
        lines.append("")
        lines.append("determinism drift (same seed, different metrics):")
        lines.extend(f"  {entry}" for entry in comparison.drift)
    if comparison.missing:
        lines.append("")
        lines.append("missing from the current run:")
        lines.extend(f"  {entry}" for entry in comparison.missing)
    lines.append("")
    verdict = (
        "PASS" if comparison.ok else "HARD REGRESSION"
    )
    lines.append(
        f"{verdict}: {len(comparison.hard_failures)} hard, "
        f"{len(comparison.warnings)} warnings, "
        f"{len(comparison.deltas)} timings compared"
    )
    return "\n".join(lines)
