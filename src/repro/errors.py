"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by this library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the failure domains (protocol misuse, simulation
configuration, analysis errors, ...).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ProtocolError",
    "MetadataInvariantError",
    "QuorumDenied",
    "SimulationError",
    "ScheduleError",
    "LockError",
    "DeadlockError",
    "NetworkError",
    "AnalysisError",
    "ChainError",
    "PerfError",
    "AlgebraError",
    "SingularSystemError",
    "ObservabilityError",
    "ManifestError",
    "CheckError",
]


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class ProtocolError(ReproError):
    """A replica control protocol was invoked incorrectly.

    Examples: asking for a quorum decision over an empty partition, passing
    copies whose metadata violates a protocol invariant, or configuring a
    protocol with an unknown site.
    """


class MetadataInvariantError(ProtocolError):
    """Replica metadata violates an invariant the protocols rely upon.

    The central invariant (Theorem 1 of the paper) is that all copies holding
    the most recent version share the same update sites cardinality and
    distinguished sites entry.  Code that detects a violation raises this
    error rather than silently producing an inconsistent decision.
    """


class QuorumDenied(ReproError):
    """An update was attempted in a partition that is not distinguished.

    Raised only by the convenience APIs that *require* success (for example
    :meth:`repro.core.file.ReplicatedFile.write`); the lower-level decision
    APIs report denial through return values instead.
    """


class SimulationError(ReproError):
    """Base class for errors in the discrete-event simulation substrate."""


class ScheduleError(SimulationError):
    """An event was scheduled in the past or a scenario script is malformed."""


class LockError(SimulationError):
    """Lock manager misuse (releasing a lock that is not held, etc.)."""


class DeadlockError(LockError):
    """A lock request would close a cycle in the waits-for graph."""


class NetworkError(SimulationError):
    """Message-level network misuse (unknown destination, etc.)."""


class AnalysisError(ReproError):
    """Base class for errors in the Markov / availability analysis layer."""


class ChainError(AnalysisError):
    """A Markov chain definition is malformed (bad rates, unreachable states)."""


class PerfError(ReproError):
    """Performance-layer misuse (bad worker counts, malformed REPRO_WORKERS)."""


class ObservabilityError(ReproError):
    """Telemetry misuse (folding an open span, metric type clashes)."""


class ManifestError(ObservabilityError):
    """A run manifest is malformed or fails schema validation."""


class AlgebraError(ReproError):
    """Base class for errors in the exact rational-function algebra."""


class SingularSystemError(AlgebraError):
    """A symbolic linear system has no unique solution."""


class CheckError(ReproError):
    """The explicit-state checker was misconfigured or a replay diverged."""
