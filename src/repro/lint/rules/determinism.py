"""REP001/REP002: randomness and wall-clock hygiene.

The stochastic experiments are replayable only because every source of
randomness flows through the named substreams of
:class:`repro.sim.rng.RandomStreams` and every notion of time is simulated
time.  These rules keep it that way.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from ..findings import Finding, Severity
from ..registry import FileContext, FileRule, register

#: The only module allowed to touch the stdlib/NumPy RNGs directly.
RNG_MODULE = "sim/rng.py"

#: The single additional sanctioned RNG site: the vectorized Monte-Carlo
#: backend constructs ``numpy.random.Generator`` objects over Philox
#: streams keyed by :func:`repro.sim.rng.derive_seed` -- the same keying
#: discipline as RNG_MODULE, batched.  Exempt by module, like the clock
#: and executor carve-outs, so the rule stays unsuppressible elsewhere.
VECTORIZED_MODULE = "sim/vectorized.py"

#: Directories whose code must never read the wall clock.
REPLAYABLE_DIRS = ("sim", "netsim", "markov", "obs", "perf")

#: The only module allowed to read the wall clock: telemetry throughput
#: and manifest timestamps funnel through here (docs/OBSERVABILITY.md).
#: The exemption is by module, not by inline suppression, so the rule
#: stays unsuppressible everywhere else.
CLOCK_MODULE = "obs/clock.py"

#: The only module allowed to spawn workers or probe CPU counts: the
#: perf layer's executor abstraction (docs/PERFORMANCE.md).  Accidental
#: parallelism anywhere else would introduce scheduling nondeterminism
#: that the bitwise serial-vs-parallel contract cannot survive, so the
#: exemption is by module, mirroring CLOCK_MODULE.
EXECUTOR_MODULE = "perf/executor.py"

#: Wall-clock reads as ``<base>.<attr>()`` call patterns.  Shared with the
#: REP009 handler-purity walk, which re-checks them along netsim call
#: chains rather than per file.
CLOCK_ATTRS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

#: Wall-clock reads as bare imported names.
CLOCK_NAMES = {"perf_counter", "perf_counter_ns", "monotonic", "time_ns"}


@register
class NoDirectRandom(FileRule):
    """REP001: all randomness flows through ``RandomStreams`` substreams."""

    code = "REP001"
    name = "no-direct-random"
    severity = Severity.ERROR
    description = (
        "direct use of `random` or `numpy.random` outside sim/rng.py and "
        "sim/vectorized.py; draw from a named RandomStreams substream (or "
        "a derive_seed-keyed Generator in the vectorized backend) instead"
    )
    rationale = (
        "Deterministic replay (DESIGN.md, common-random-numbers hygiene): "
        "an unnamed RNG perturbs every downstream experiment when a new "
        "consumer of randomness appears."
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.is_file(RNG_MODULE) or ctx.is_file(VECTORIZED_MODULE):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root == "random" or alias.name.startswith("numpy.random"):
                        yield self.finding(
                            ctx,
                            node.lineno,
                            f"direct `import {alias.name}` (only sim/rng.py may "
                            "touch the RNG modules)",
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                if module == "random" or module.startswith("numpy.random"):
                    yield self.finding(
                        ctx,
                        node.lineno,
                        f"direct `from {module} import ...` (route through "
                        "RandomStreams substreams)",
                    )
                elif module == "numpy" and any(
                    alias.name == "random" for alias in node.names
                ):
                    yield self.finding(
                        ctx, node.lineno, "direct `from numpy import random`"
                    )
            elif isinstance(node, ast.Attribute) and node.attr == "random":
                value = node.value
                if isinstance(value, ast.Name) and value.id in ("np", "numpy"):
                    yield self.finding(
                        ctx,
                        node.lineno,
                        f"direct `{value.id}.random` access (use a "
                        "RandomStreams substream)",
                    )


@register
class NoWallClock(FileRule):
    """REP002: no wall clock in simulated code, no ad-hoc parallelism.

    Two faces of the same determinism contract: wall-clock reads make
    traces unreproducible, and worker pools introduce scheduling
    nondeterminism.  Each has exactly one sanctioned module
    (:data:`CLOCK_MODULE`, :data:`EXECUTOR_MODULE`).
    """

    code = "REP002"
    name = "no-wall-clock"
    severity = Severity.ERROR
    description = (
        "wall-clock access (time.time, datetime.now, perf_counter) in "
        "sim/, netsim/, markov/, obs/ or perf/ (only obs/clock.py may), "
        "or parallelism primitives (concurrent.futures, multiprocessing, "
        "os.cpu_count) outside perf/executor.py"
    )
    rationale = (
        "Replayability: simulation and chain code is parameterised by "
        "*model* time only; wall-clock reads make traces unreproducible. "
        "Telemetry's sanctioned wall-clock access lives in obs/clock.py "
        "and feeds only wall-clock-marked metrics.  Likewise the bitwise "
        "serial-vs-parallel contract (docs/PERFORMANCE.md) holds only "
        "because every worker pool flows through the order-preserving "
        "executors of perf/executor.py."
    )

    #: Module roots whose import signals hand-rolled parallelism.
    _PARALLEL_ROOTS = {"concurrent", "multiprocessing"}
    #: CPU-count probes, as ``os.<attr>`` calls or bare imported names.
    _CPU_PROBES = {"cpu_count", "process_cpu_count"}

    _CLOCK_ATTRS = CLOCK_ATTRS
    _CLOCK_NAMES = CLOCK_NAMES

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.is_file(EXECUTOR_MODULE):
            yield from self._check_parallelism(ctx)
        if not ctx.in_dirs(*REPLAYABLE_DIRS):
            return
        if ctx.is_file(CLOCK_MODULE):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                base = func.value
                base_name = base.id if isinstance(base, ast.Name) else None
                # Matches time.time(), datetime.now(), datetime.datetime.now()
                if isinstance(base, ast.Attribute):
                    base_name = base.attr
                if (base_name, func.attr) in self._CLOCK_ATTRS:
                    yield self.finding(
                        ctx,
                        node.lineno,
                        f"wall-clock call `{base_name}.{func.attr}()` in "
                        "replayable code",
                    )
            elif isinstance(func, ast.Name) and func.id in self._CLOCK_NAMES:
                yield self.finding(
                    ctx,
                    node.lineno,
                    f"wall-clock call `{func.id}()` in replayable code",
                )

    def _check_parallelism(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag worker pools and CPU probes outside the executor module.

        Applies to the whole package (not just REPLAYABLE_DIRS): a stray
        thread pool in analysis/ would be just as scheduling-dependent.
        """
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self._PARALLEL_ROOTS:
                        yield self.finding(
                            ctx,
                            node.lineno,
                            f"direct `import {alias.name}` (worker pools "
                            "belong in perf/executor.py)",
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                if module.split(".")[0] in self._PARALLEL_ROOTS:
                    yield self.finding(
                        ctx,
                        node.lineno,
                        f"direct `from {module} import ...` (worker pools "
                        "belong in perf/executor.py)",
                    )
                elif module == "os" and any(
                    alias.name in self._CPU_PROBES for alias in node.names
                ):
                    yield self.finding(
                        ctx,
                        node.lineno,
                        "CPU-count probe imported from os (worker sizing "
                        "belongs in perf/executor.py)",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self._CPU_PROBES
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "os"
                ):
                    yield self.finding(
                        ctx,
                        node.lineno,
                        f"CPU-count probe `os.{func.attr}()` (worker "
                        "sizing belongs in perf/executor.py)",
                    )
