"""Layer spans for the traced launch: wrap public calls, fold self times.

A traced launch replaces each function in :data:`WRAPS` with a wrapper
that records one span per call.  Spans nest: a span's *self time* is its
duration minus the time covered by the spans it called, so the self times
of all spans plus the time spent outside any span add up to the traced
wall time of the job.  Spans are folded as they close, keyed by
``(parent span name, span name)``, so a check run with hundreds of
thousands of calls keeps a few dozen counters instead of every span.

Each function is wrapped where its caller looks it up, not where it is
defined: ``repro.markov.ctmc`` binds ``fraction_solve`` and
``bareiss_solve`` by name from ``repro.ratfunc``,
``repro.markov.availability`` binds ``derive_lumped_chain`` from the
builder, and ``repro.check.explorer`` binds ``check_oracles``, so
patching the defining module would record nothing.  Methods are patched
on the class that defines them, which is where attribute lookup finds
them.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections.abc import Callable
from dataclasses import dataclass, field

__all__ = ["WRAPS", "Tracer", "SPAN_METRICS"]

#: (module, attribute path, span name).  ``sim.<backend>`` spans are named
#: by the call's ``backend=`` argument: ``sim.scalar`` or ``sim.vectorized``.
WRAPS: tuple[tuple[str, str, str], ...] = (
    # markov: chain construction (lumped, derived and hand-built chains)
    ("repro.markov.availability", "derive_lumped_chain", "markov.build"),
    ("repro.markov.availability", "chain_for", "markov.build"),
    ("repro.markov", "derive_chain", "markov.build"),
    ("repro.markov", "chain_for", "markov.build"),
    # markov: numeric steady-state solves; the sparse backend is imported
    # from its module at call time, so the module attribute is the site
    ("repro.markov.ctmc", "ChainSpec.steady_state", "markov.solve.dense"),
    ("repro.markov.ctmc", "ChainSpec.steady_state_grid", "markov.solve.dense"),
    ("repro.markov.sparse", "sparse_steady_state", "markov.solve.sparse"),
    ("repro.markov.sparse", "sparse_steady_state_grid", "markov.solve.sparse"),
    # ratfunc: exact and symbolic elimination, certified root counting
    ("repro.markov.ctmc", "fraction_solve", "ratfunc.exact"),
    ("repro.markov.ctmc", "bareiss_solve", "ratfunc.symbolic"),
    ("repro.analysis.crossover", "count_positive_roots", "ratfunc.roots"),
    ("repro.analysis.proof", "count_positive_roots", "ratfunc.roots"),
    # analysis: the Theorem 3 and figure entry points the workload calls
    ("repro.analysis", "theorem3_table", "analysis"),
    ("repro.analysis", "theorem3_proof", "analysis"),
    ("repro.analysis", "figure3_series", "analysis"),
    ("repro.analysis", "figure4_series", "analysis"),
    # check: the explorer and every harness step it drives
    ("repro.check.explorer", "Explorer.run", "check.explorer"),
    ("repro.check.harness", "CheckHarness.replay", "check.replay"),
    ("repro.check.harness", "CheckHarness.apply", "check.apply"),
    ("repro.check.harness", "CheckHarness.snapshot", "check.snapshot"),
    ("repro.check.harness", "CheckHarness.enabled_actions", "check.enabled"),
    ("repro.check.explorer", "check_oracles", "check.oracles"),
    # sim: Monte Carlo fan-out and the vectorized kernel loop
    ("repro.sim", "estimate_availability", "sim.<backend>"),
    ("repro.sim.vectorized", "VectorizedReplicaBatch.run", "sim.kernel"),
    # netsim: the message-level cluster under Poisson failures and probes
    ("repro.netsim.stochastic", "ClusterModelDriver.run", "netsim.cluster"),
    # obs: JSONL export, causal DAG re-read, happens-before assertions
    ("repro.obs.trace", "TraceLog.to_jsonl", "obs.export"),
    ("repro.obs.query", "CausalDag.from_jsonl", "obs.parse"),
    ("repro.obs.query", "check_assertions", "obs.assert"),
    # core: the quorum decision every layer above ends in
    ("repro.core.base", "ReplicaControlProtocol.is_distinguished", "core.decide"),
    ("repro.core.base", "ReplicaControlProtocol.attempt_update", "core.decide"),
)

#: Span name -> per-layer metric reporting its self time.  The analysis
#: and explorer spans enclose most of their layer's work, so their metric
#: says it is the self time only.
SPAN_METRICS: dict[str, str] = {
    "markov.build": "markov.build_s",
    "markov.solve.dense": "markov.solve.dense_s",
    "markov.solve.sparse": "markov.solve.sparse_s",
    "ratfunc.exact": "ratfunc.exact_s",
    "ratfunc.symbolic": "ratfunc.symbolic_s",
    "ratfunc.roots": "ratfunc.roots_s",
    "analysis": "analysis.self_s",
    "check.explorer": "check.explorer_self_s",
    "check.replay": "check.replay_s",
    "check.apply": "check.apply_s",
    "check.snapshot": "check.snapshot_s",
    "check.enabled": "check.enabled_s",
    "check.oracles": "check.oracles_s",
    "sim.scalar": "sim.scalar_s",
    "sim.vectorized": "sim.vectorized_s",
    "sim.kernel": "sim.kernel_s",
    "netsim.cluster": "netsim.cluster_s",
    "obs.export": "obs.export_s",
    "obs.parse": "obs.parse_s",
    "obs.assert": "obs.assert_s",
    "core.decide": "core.decide_s",
}


def _backend_span(args: tuple, kwargs: dict) -> str:
    return f"sim.{kwargs.get('backend', 'scalar')}"


@dataclass
class _Edge:
    """Folded spans of one name under one parent name."""

    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


@dataclass
class Tracer:
    """Records nested spans around the :data:`WRAPS` targets.

    Use as a context manager: entering patches every target, leaving
    restores the originals.  ``edges[(parent, name)]`` holds the folded
    spans; ``parent`` is ``None`` for a span no other span encloses.
    """

    edges: dict[tuple[str | None, str], _Edge] = field(default_factory=dict)
    _stack: list[list] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    def __enter__(self) -> "Tracer":
        for module_name, path, name in WRAPS:
            owner = importlib.import_module(module_name)
            *owners, attribute = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            self._patch(owner, attribute, name)
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner: object, attribute: str, name: str) -> None:
        raw = vars(owner).get(attribute)
        original = getattr(owner, attribute)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, name))
            original = raw
        else:
            wrapped = self._wrap(original, name)
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, wrapped)

    def _wrap(self, function: Callable, name: str) -> Callable:
        stack = self._stack
        edges = self._edges_for
        clock = time.perf_counter
        name_of = _backend_span if name == "sim.<backend>" else None

        @functools.wraps(function)
        def span(*args, **kwargs):
            frame = [name_of(args, kwargs) if name_of else name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                edge = edges(parent[0] if parent else None, frame[0])
                edge.calls += 1
                edge.seconds += elapsed
                edge.self_seconds += elapsed - frame[1]

        return span

    def _edges_for(self, parent: str | None, name: str) -> _Edge:
        edge = self.edges.get((parent, name))
        if edge is None:
            edge = self.edges[(parent, name)] = _Edge()
        return edge

    def self_seconds(self, name: str) -> float:
        """Total self time of every span called ``name``."""
        return sum(e.self_seconds for (_, n), e in self.edges.items() if n == name)

    def calls(self, name: str, parent: str | None = None) -> int:
        """Spans called ``name`` (only those under ``parent`` if given)."""
        return sum(
            e.calls
            for (p, n), e in self.edges.items()
            if n == name and (parent is None or p == parent)
        )

    def root_seconds(self) -> float:
        """Time covered by spans that no other span encloses."""
        return sum(e.seconds for (p, _), e in self.edges.items() if p is None)
