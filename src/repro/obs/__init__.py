"""Telemetry for the repro substrates: metrics, spans, traces, manifests.

The observability layer sits just above :mod:`repro.errors` /
:mod:`repro.types` so every execution substrate (``sim``, ``netsim``,
``markov``, ``analysis``) can report through one instrumentation API:

* :mod:`repro.obs.metrics` -- counters / gauges / histograms in a
  :class:`MetricsRegistry` with named scopes and a near-zero-overhead
  disabled mode (:data:`NULL_REGISTRY`), plus a process-global registry
  (:func:`global_registry` / :func:`use`) for deep layers.
* :mod:`repro.obs.trace` -- the structured :class:`TraceEvent` /
  :class:`TraceLog` (typed fields, JSONL export, per-category drop
  accounting), shared by every substrate.
* :mod:`repro.obs.causal` -- causal trace contexts (trace id, event id,
  Lamport clock) and the :class:`CausalTracer` that records the
  causally-parented ``causal`` event DAG (null-object
  :data:`NULL_CAUSAL` when disabled) -- the only thing netsim emits.
* :mod:`repro.obs.query` -- the trace-query engine over exported causal
  DAGs: happens-before assertions, critical-path extraction with
  per-phase latency breakdown, per-operation stats, and the views derived
  from the DAG: sim-time :class:`Span` intervals (runs, vote rounds,
  catch-up, in-doubt windows) and the flat ``repro trace`` transcript.
* :mod:`repro.obs.clock` -- the only module allowed to read the wall
  clock (replint REP002 exempts exactly that file).
* :mod:`repro.obs.profile` -- the deterministic :class:`SpanProfiler`
  (span-forest folding into inclusive/exclusive tables, collapsed-stack
  export) and the :func:`hotpath` wall timers behind ``repro profile``.
* :mod:`repro.obs.manifest` -- the :class:`RunManifest` JSON artifact
  (seed, protocol, params, git describe, metric snapshots) with schema
  validation; deterministic modulo :data:`WALL_CLOCK_FIELDS`.

See ``docs/OBSERVABILITY.md`` for the metric name tables, the span
taxonomy, and the manifest schema.
"""

from .causal import (
    MESSAGE_PHASES,
    NULL_CAUSAL,
    CausalContext,
    CausalTracer,
    NullCausalTracer,
    derive_trace_id,
)
from .clock import Stopwatch, perf_seconds, utc_timestamp, wall_time
from .manifest import (
    SCHEMA_VERSION,
    WALL_CLOCK_FIELDS,
    RunManifest,
    git_describe,
    strip_wall_clock,
    validate_manifest,
)
from .metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsScope,
    global_registry,
    use,
)
from .profile import (
    SpanProfiler,
    active_profiler,
    hotpath,
    parse_collapsed,
    profiling,
)
from .query import (
    AssertionFailure,
    CausalDag,
    CausalEvent,
    CriticalPath,
    OperationStats,
    PathSegment,
    Span,
    assertion_names,
    check_assertions,
    operation_stats,
    spans,
    transcript,
)
from .trace import TraceEvent, TraceLog

__all__ = [
    "CausalContext",
    "CausalTracer",
    "NullCausalTracer",
    "NULL_CAUSAL",
    "MESSAGE_PHASES",
    "derive_trace_id",
    "CausalDag",
    "CausalEvent",
    "CriticalPath",
    "PathSegment",
    "AssertionFailure",
    "OperationStats",
    "assertion_names",
    "check_assertions",
    "operation_stats",
    "Span",
    "spans",
    "transcript",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsScope",
    "NULL_REGISTRY",
    "global_registry",
    "use",
    "SpanProfiler",
    "active_profiler",
    "hotpath",
    "parse_collapsed",
    "profiling",
    "TraceEvent",
    "TraceLog",
    "Stopwatch",
    "perf_seconds",
    "utc_timestamp",
    "wall_time",
    "RunManifest",
    "SCHEMA_VERSION",
    "WALL_CLOCK_FIELDS",
    "git_describe",
    "strip_wall_clock",
    "validate_manifest",
]
