"""Append-only bench history and the committed performance trajectory.

The **history** is a JSONL file (one :class:`~repro.bench.record.BenchRecord`
per line, default ``benchmarks/manifests/bench_history.jsonl``): every
``repro bench run`` and every perf-suite benchmark appends; nothing ever
rewrites an existing line, so the file is a merge-friendly, grep-able
record of how each scenario performed on each revision.

The **trajectory** (schema ``repro.bench-trajectory/1``, committed at the
repo root as ``BENCH_perf.json``) is *regenerated* from the history: one
summary entry per record -- revision, timestamp, scenario, timings, and a
few headline metrics -- ordered by (created_at, scenario) so the diff a
bench run produces is an append at the tail.  ``repro bench report``
renders the same data as a table (docs/BENCHMARKING.md documents both
schemas).
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

from ..errors import BenchError
from .record import RUN_SCHEMA_VERSION, BenchRecord, dump_run, load_run

__all__ = [
    "TRAJECTORY_SCHEMA_VERSION",
    "append_records",
    "load_history",
    "load_records",
    "latest_per_scenario",
    "merge_histories",
    "render_history",
    "write_run",
    "write_trajectory",
]

#: Trajectory schema identifier; bump on incompatible layout changes.
TRAJECTORY_SCHEMA_VERSION = "repro.bench-trajectory/1"

#: Deterministic metric series surfaced into trajectory entries when the
#: record carries them (headline convergence / problem-size indicators).
_HEADLINE_METRICS = (
    "mc.mean",
    "mc.stderr",
    "mc.events",
    "mc.replicate.estimate",
    "markov.solve.batched",
    "markov.solve.horner",
)


def append_records(path: str | Path, records: Iterable[BenchRecord]) -> Path:
    """Append records to the JSONL history at ``path`` (created if absent)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = "".join(record.to_json() + "\n" for record in records)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(lines)
    return path


def load_history(path: str | Path) -> list[BenchRecord]:
    """Load and validate every record of a JSONL history file."""
    path = Path(path)
    records = []
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except ValueError as exc:
            raise BenchError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
        try:
            records.append(BenchRecord.from_dict(data))
        except BenchError as exc:
            raise BenchError(f"{path}:{lineno}: {exc}") from exc
    return records


def load_records(path: str | Path) -> list[BenchRecord]:
    """Load bench records from any of the formats the CLI accepts.

    ``*.jsonl`` files are read as history; ``*.json`` files may hold a
    bench-run document (``repro.bench-run/1``), a single record, or a
    bare array of records.
    """
    path = Path(path)
    if path.suffix == ".jsonl":
        return load_history(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise BenchError(f"{path}: not valid JSON: {exc}") from exc
    if isinstance(data, Mapping) and data.get("schema") == RUN_SCHEMA_VERSION:
        return load_run(data)
    if isinstance(data, Mapping):
        return [BenchRecord.from_dict(data)]
    if isinstance(data, Sequence):
        return [BenchRecord.from_dict(entry) for entry in data]
    raise BenchError(f"{path}: unrecognised bench record layout")


def latest_per_scenario(
    records: Iterable[BenchRecord],
) -> dict[str, BenchRecord]:
    """The last record of each scenario, in scenario order.

    "Last" is file/list order, not timestamp order: the history is
    append-only, so later lines *are* later runs, and identical
    ``created_at`` seconds cannot reorder them.
    """
    latest: dict[str, BenchRecord] = {}
    for record in records:
        latest[record.scenario] = record
    return dict(sorted(latest.items()))


def merge_histories(*histories: Iterable[BenchRecord]) -> list[BenchRecord]:
    """Concatenate histories, dropping exact duplicates, stable order.

    Two CI shards appending the same seeded run produce byte-identical
    deterministic sides but distinct timings, so "duplicate" means the
    full record dict -- merge never loses a measurement, only literal
    re-appends of the same line.
    """
    merged: list[BenchRecord] = []
    seen: set[str] = set()
    for history in histories:
        for record in history:
            key = record.to_json()
            if key in seen:
                continue
            seen.add(key)
            merged.append(record)
    return merged


def write_run(path: str | Path, records: Sequence[BenchRecord]) -> Path:
    """Write a bench-run document (the ``--record`` artifact)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dump_run(records), encoding="utf-8")
    return path


def render_history(
    records: Sequence[BenchRecord], fmt: str = "md"
) -> str:
    """Render a history as a per-record table (markdown or aligned text).

    One row per record in history order -- the time axis of the
    trajectory -- with every timing the record carries in a compact
    ``name=value`` list.
    """
    if fmt not in ("md", "text"):
        raise BenchError(f"unknown report format {fmt!r} (md or text)")
    header = ("created_at", "git", "suite", "scenario", "timings")
    rows = [
        (
            record.created_at or "-",
            record.git,
            record.suite,
            record.scenario,
            " ".join(
                f"{name}={value:.6g}"
                for name, value in sorted(record.timings.items())
            ),
        )
        for record in records
    ]
    if fmt == "md":
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("|" + "|".join(" --- " for _ in header) + "|")
        lines.extend("| " + " | ".join(row) + " |" for row in rows)
        return "\n".join(lines)
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    lines.extend(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        for row in rows
    )
    return "\n".join(lines)


def _trajectory_entry(record: BenchRecord) -> dict:
    entry = {
        "scenario": record.scenario,
        "suite": record.suite,
        "git": record.git,
        "created_at": record.created_at,
        "seed": record.seed,
        "timings": dict(record.timings),
    }
    headline = {}
    for name in _HEADLINE_METRICS:
        metric = record.metrics.get(name)
        if metric is None:
            continue
        value = metric.get("value", metric.get("mean"))
        if value is not None:
            headline[name] = value
    if headline:
        entry["metrics"] = headline
    return entry


def write_trajectory(
    path: str | Path,
    records: Iterable[BenchRecord],
    *,
    suite: str | None = None,
) -> Path:
    """Regenerate the trajectory file at ``path`` from ``records``.

    Filters to ``suite`` when given; entries are sorted by
    ``(created_at, scenario)`` so regeneration after an append diffs as
    an append.
    """
    chosen = [
        record
        for record in records
        if suite is None or record.suite == suite
    ]
    if not chosen:
        raise BenchError(
            "trajectory regeneration needs at least one record"
            + (f" for suite {suite!r}" if suite else "")
        )
    entries = sorted(
        (_trajectory_entry(record) for record in chosen),
        key=lambda entry: (entry["created_at"], entry["scenario"]),
    )
    document = {
        "schema": TRAJECTORY_SCHEMA_VERSION,
        "suite": suite or "all",
        "entries": entries,
    }
    path = Path(path)
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path
