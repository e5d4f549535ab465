"""Causal tracing: trace contexts, Lamport clocks, causally-parented events.

Every submitted operation mints a :class:`CausalContext` -- a trace id, an
event id, and a Lamport timestamp.  The context travels with every netsim
message and timer, and each protocol step (send, deliver, lock grant,
vote, commit, install, abort) emits one ``TraceEvent`` of category
``causal`` whose ``parents`` field names the event ids it causally follows.
Each topology change (site or link failure and repair) is a root of its
own.  These events are the only thing a traced cluster emits: the full
submit -> lock -> vote -> commit DAG is reconstructible from the JSONL
export alone, and :mod:`repro.obs.query` parses it back, answers
happens-before and critical-path questions, and derives the flat
transcript and the sim-time spans from it.

Determinism: trace ids are keyed by ``derive_trace_id(seed, name)``, the
same ``sha256(f"{seed}:{name}")`` derivation as
:func:`repro.sim.rng.derive_seed` (replicated here because the obs layer
sits below ``sim`` and may not import it).  Event ids are per-trace
counters, and Lamport clocks advance only on emission, so two runs with
the same seed and schedule produce byte-identical causal traces.

When tracing is off the shared :data:`NULL_CAUSAL` instance stands in:
``enabled`` is False, ``emit`` returns a constant context and records
nothing, and ``scope``/``scoped`` are no-ops -- the hot paths pay one
attribute check.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .trace import TraceEvent, TraceLog

__all__ = [
    "CausalContext",
    "CausalTracer",
    "NullCausalTracer",
    "NULL_CAUSAL",
    "MESSAGE_PHASES",
    "TIMER_PHASES",
    "derive_trace_id",
]


def derive_trace_id(seed: int, name: str) -> str:
    """Deterministic 64-bit hex trace id for ``name`` under ``seed``.

    Mirrors ``repro.sim.rng.derive_seed`` (sha256 over ``"{seed}:{name}"``,
    first 8 bytes) so trace identity follows the repo-wide seed-derivation
    convention without the obs layer importing ``sim``.
    """
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return digest[:8].hex()


#: Protocol phase each message type belongs to, for per-phase latency
#: attribution in critical paths (docs/OBSERVABILITY.md).
MESSAGE_PHASES: dict[str, str] = {
    "VoteRequest": "vote",
    "VoteReply": "vote",
    "CommitMessage": "decision",
    "AbortMessage": "decision",
    "CatchUpRequest": "catch-up",
    "CatchUpReply": "catch-up",
    "DecisionRequest": "termination",
    "DecisionReply": "termination",
}

#: Protocol phase each control timer belongs to -- a window expiring bills
#: its wait to the phase that was waiting (the vote window to ``vote``,
#: the catch-up window to ``catch-up``, ...).
TIMER_PHASES: dict[str, str] = {
    "start": "submit",
    "lock-timeout": "lock",
    "vote-window": "vote",
    "catch-up-window": "catch-up",
    "termination-probe": "termination",
}


@dataclass(frozen=True, slots=True)
class CausalContext:
    """One point in the causal DAG: trace id, event id, Lamport clock."""

    trace_id: str
    event_id: str
    lamport: int


#: The context the null tracer hands out; never recorded anywhere.
NULL_CONTEXT = CausalContext("", "", 0)


class _Scope:
    """Cheap re-entrant save/restore of a tracer's current context."""

    __slots__ = ("_tracer", "_ctx", "_saved")

    def __init__(self, tracer: "CausalTracer", ctx: CausalContext | None) -> None:
        self._tracer = tracer
        self._ctx = ctx
        self._saved: CausalContext | None = None

    def __enter__(self) -> CausalContext | None:
        self._saved = self._tracer.current
        self._tracer.current = self._ctx
        return self._ctx

    def __exit__(self, *exc: object) -> None:
        self._tracer.current = self._saved


class _NullScope:
    """The no-op scope the null tracer returns."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SCOPE = _NullScope()


class CausalTracer:
    """Mints causal contexts and records ``causal`` events into a log.

    ``sink`` is the :class:`~repro.obs.trace.TraceLog` events land in;
    ``seed`` keys the deterministic trace ids.  ``current`` holds the
    context of the event being processed right now (a delivery, a timer
    firing) so code deeper in the call stack inherits the correct parent
    without threading contexts through every signature.
    """

    enabled = True

    def __init__(self, sink: TraceLog, seed: int = 0) -> None:
        self._sink = sink
        self._seed = seed
        self._site_clocks: dict[object, int] = {}
        self._trace_counters: dict[str, int] = {}
        self._orphans = 0
        self.current: CausalContext | None = None

    def begin(
        self,
        name: str,
        kind: str,
        time: float,
        *,
        site: object = None,
        tick: bool = True,
        **fields: object,
    ) -> CausalContext:
        """Mint a new trace root (a submitted operation, a topology change).

        ``tick=False`` stamps the root one past ``site``'s Lamport clock
        without advancing it: a failure or repair happens *to* a site, not
        at it, so it must not renumber the site's own events.
        """
        trace_id = derive_trace_id(self._seed, f"trace:{name}")
        return self._record(trace_id, kind, time, (), site, fields, tick)

    def emit(
        self,
        kind: str,
        time: float,
        *,
        parents: Iterable[CausalContext | None] = (),
        site: object = None,
        **fields: object,
    ) -> CausalContext:
        """Record one causally-parented event; returns its context.

        ``parents`` may contain ``None`` entries and duplicates (call
        sites pass ``tracer.current`` alongside explicit contexts); both
        are dropped.  An event with no surviving parent starts its own
        ``orphan`` trace rather than failing -- it marks instrumentation
        reached outside any causal scope.
        """
        seen: list[CausalContext] = []
        for parent in parents:
            if parent is None or parent is NULL_CONTEXT or parent in seen:
                continue
            seen.append(parent)
        if not seen:
            self._orphans += 1
            trace_id = derive_trace_id(self._seed, f"trace:orphan:{self._orphans}")
        else:
            trace_id = seen[0].trace_id
        return self._record(trace_id, kind, time, tuple(seen), site, fields)

    def _record(
        self,
        trace_id: str,
        kind: str,
        time: float,
        parents: tuple[CausalContext, ...],
        site: object,
        fields: dict[str, object],
        tick: bool = True,
    ) -> CausalContext:
        index = self._trace_counters.get(trace_id, 0)
        self._trace_counters[trace_id] = index + 1
        event_id = f"{trace_id}/{index}"
        clock = self._site_clocks.get(site, 0)
        for parent in parents:
            if parent.lamport > clock:
                clock = parent.lamport
        lamport = clock + 1
        if tick:
            self._site_clocks[site] = lamport
        # Build the TraceEvent in place (TraceLog.append) instead of going
        # through record(**fields): one fewer dict per event on a path that
        # runs for every send/deliver/timer of a traced run.
        self._sink.append(
            TraceEvent(
                time,
                "causal",
                f"{kind} {event_id}",
                (
                    ("event", kind),
                    ("trace_id", trace_id),
                    ("event_id", event_id),
                    ("parents", [parent.event_id for parent in parents]),
                    ("lamport", lamport),
                    ("site", site),
                    *fields.items(),
                ),
            )
        )
        return CausalContext(trace_id, event_id, lamport)

    def scope(self, ctx: CausalContext | None) -> _Scope:
        """Context manager installing ``ctx`` as the current context."""
        return _Scope(self, ctx)

    def scoped(
        self, fn: Callable[[], None], ctx: CausalContext | None
    ) -> Callable[[], None]:
        """Wrap a thunk so it runs with ``ctx`` as the current context."""

        def run() -> None:
            with self.scope(ctx):
                fn()

        return run


class NullCausalTracer:
    """Disabled tracer: constant context, no recording, no-op scopes."""

    enabled = False
    current: CausalContext | None = None

    def begin(
        self,
        name: str,
        kind: str,
        time: float,
        *,
        site: object = None,
        **fields: object,
    ) -> CausalContext:
        return NULL_CONTEXT

    def emit(
        self,
        kind: str,
        time: float,
        *,
        parents: Iterable[CausalContext | None] = (),
        site: object = None,
        **fields: object,
    ) -> CausalContext:
        return NULL_CONTEXT

    def scope(self, ctx: CausalContext | None) -> _NullScope:
        return _NULL_SCOPE

    def scoped(
        self, fn: Callable[[], None], ctx: CausalContext | None
    ) -> Callable[[], None]:
        return fn


#: Shared disabled tracer (the null-object of the causal subsystem).
NULL_CAUSAL = NullCausalTracer()
