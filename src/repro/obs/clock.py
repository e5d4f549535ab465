"""The one module sanctioned to read the wall clock.

Everything under ``sim/``, ``netsim/``, ``markov/`` and ``obs/`` is
parameterised by *simulated* time (replint's REP002 rule fails the build
otherwise), but telemetry legitimately needs the wall clock for
throughput (events per second) and manifest timestamps.  That access is
funnelled through this module -- replint exempts exactly this file, by
module rather than by inline suppression, so a stray ``time.time()``
anywhere else is still a build failure.

Callers must treat every value produced here as **nondeterministic**:
wall-clock readings may only feed wall-clock-marked gauges
(:meth:`~repro.obs.metrics.MetricsRegistry.gauge` with
``wall_clock=True``) and the manifest's wall-clock fields, never anything
compared across seeded runs.
"""

from __future__ import annotations

import time
from datetime import datetime, timezone

__all__ = ["utc_timestamp", "Stopwatch"]


def utc_timestamp() -> str:
    """The current UTC instant as an ISO-8601 string."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class Stopwatch:
    """Elapsed wall time since construction (monotonic clock)."""

    __slots__ = ("_start",)

    def __init__(self) -> None:
        self._start = time.perf_counter()

    @property
    def seconds(self) -> float:
        """Seconds elapsed since the stopwatch was created."""
        return time.perf_counter() - self._start
