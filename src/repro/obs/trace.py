"""Structured trace events: typed fields, JSONL export, drop accounting.

A :class:`TraceEvent` is one timestamped record with a category, a
human-readable description, and *typed fields* -- machine-readable
key/value pairs that survive :meth:`~TraceEvent.to_dict` and the JSONL
export, so tools no longer have to parse the rendered strings.
``render()`` produces the ``t=0.0300 [message] A -> B VoteReply``
transcript lines tests and examples read.

:class:`TraceLog` is the bounded, append-only collector.  Past capacity it
*counts* what it drops -- in total and per category -- and ``render()``
reports the truncation instead of silently hiding it.

A traced netsim :class:`~repro.netsim.cluster.ReplicaCluster` collects
only the ``causal`` DAG events of :mod:`repro.obs.causal`; its flat
run/topology/message/span transcript is derived from them
(:func:`repro.obs.query.transcript`).  A model-checker
counterexample adds ``check`` records for its schedule.  Tracing is
opt-in (``ReplicaCluster(..., trace=True)``); when disabled the hot paths
skip the recording entirely.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

__all__ = ["TraceEvent", "TraceLog"]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One timestamped trace record with optional typed fields.

    ``fields`` is stored as a tuple of ``(key, value)`` pairs so events
    stay hashable and deterministic; use :meth:`field` or
    :meth:`to_dict` to read them.
    """

    time: float
    category: str
    description: str
    fields: tuple[tuple[str, object], ...] = ()

    @classmethod
    def of(
        cls, time: float, category: str, description: str, **fields: object
    ) -> "TraceEvent":
        """Build an event from keyword fields."""
        return cls(time, category, description, tuple(fields.items()))

    def field(self, key: str, default: object = None) -> object:
        """The value of one typed field (``default`` if absent)."""
        for name, value in self.fields:
            if name == key:
                return value
        return default

    def to_dict(self) -> dict:
        """JSON-ready mapping: time, category, description, fields."""
        return {
            "time": self.time,
            "category": self.category,
            "description": self.description,
            "fields": dict(self.fields),
        }

    def to_json(self) -> str:
        """One JSONL line (sorted keys, no trailing newline)."""
        return json.dumps(self.to_dict(), sort_keys=True, default=str)

    def render(self) -> str:
        """``t=0.0300 [message] A -> B VoteReply``-style line."""
        return f"t={self.time:8.4f} [{self.category}] {self.description}"


class TraceLog:
    """An append-only event log with filtering, rendering, and JSONL export."""

    def __init__(self, capacity: int = 100_000) -> None:
        self._events: list[TraceEvent] = []
        self._capacity = capacity
        self._dropped = 0
        self._dropped_by_category: dict[str, int] = {}

    def record(
        self, time: float, category: str, description: str, **fields: object
    ) -> None:
        """Append an event; past capacity, count the drop per category."""
        self.append(TraceEvent(time, category, description, tuple(fields.items())))

    def append(self, event: TraceEvent) -> None:
        """Append a pre-built event (the causal tracer's fast path).

        Same capacity rule as :meth:`record`; building the
        :class:`TraceEvent` at the call site skips one keyword-dict
        round-trip per event, which matters on the causal hot path.
        """
        if len(self._events) >= self._capacity:
            self._dropped += 1
            self._dropped_by_category[event.category] = (
                self._dropped_by_category.get(event.category, 0) + 1
            )
            return
        self._events.append(event)

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """All recorded events, chronological."""
        return tuple(self._events)

    @property
    def dropped(self) -> int:
        """Events dropped after the capacity bound was hit."""
        return self._dropped

    @property
    def dropped_by_category(self) -> Mapping[str, int]:
        """Drop counts per category (empty mapping when nothing dropped)."""
        return dict(self._dropped_by_category)

    def __len__(self) -> int:
        return len(self._events)

    def category(self, name: str) -> tuple[TraceEvent, ...]:
        """Events of one category."""
        return tuple(e for e in self._events if e.category == name)

    def matching(self, needle: str) -> tuple[TraceEvent, ...]:
        """Events whose description contains ``needle``."""
        return tuple(e for e in self._events if needle in e.description)

    def render(
        self,
        categories: Iterable[str] | None = None,
        limit: int | None = None,
    ) -> str:
        """Readable transcript, optionally filtered and truncated.

        A log that dropped events at capacity always says so: the last
        line reports the total drop count (with the per-category split),
        so truncation is never silent.
        """
        wanted = set(categories) if categories is not None else None
        selected = [
            e for e in self._events if wanted is None or e.category in wanted
        ]
        lines = [e.render() for e in selected]
        if limit is not None and len(selected) > limit:
            omitted = len(selected) - limit
            lines = lines[:limit]
            lines.append(f"... ({omitted} more)")
        if self._dropped > 0:
            lines.append(self.drop_notice())
        return "\n".join(lines)

    def drop_notice(self) -> str:
        """The line reporting the drops, with the per-category split."""
        split = ", ".join(
            f"{category}: {count}"
            for category, count in sorted(self._dropped_by_category.items())
        )
        return f"... ({self._dropped} dropped at capacity; {split})"

    def iter_jsonl(
        self, categories: Iterable[str] | None = None
    ) -> Iterator[str]:
        """One JSON document per event, optionally filtered by category."""
        wanted = set(categories) if categories is not None else None
        for event in self._events:
            if wanted is None or event.category in wanted:
                yield event.to_json()

    def to_jsonl(self, categories: Iterable[str] | None = None) -> str:
        """The JSONL export as one string (lines separated by newlines)."""
        return "\n".join(self.iter_jsonl(categories))
