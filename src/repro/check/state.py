"""Canonical cluster snapshots and state fingerprints.

The explorer deduplicates visited states by an *exact* canonical encoding
of everything that can influence future behaviour: topology, per-site
durable state (metadata, value, history, decision log), per-site volatile
state (lock holder, each waiter's run and requesting site, in-doubt
records), active coordinator runs, the
in-flight message multiset, armed timers, and the remaining environment
budgets.  The encoding is a nested tuple of primitives, so snapshots hash
and compare by value and serve directly as dictionary keys -- no digest
truncation, hence no collision risk.  :meth:`ClusterSnapshot.digest` adds
a short SHA-256 hex form for reports and logs.

Everything order-dependent is either genuinely ordered (lock queues,
histories) or canonically sorted (multisets, per-site maps); values are
encoded with ``repr`` so heterogeneous payloads never hit unorderable
comparisons.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from dataclasses import dataclass

from ..core.metadata import ReplicaMetadata
from ..netsim.messages import Message
from ..types import SiteId

__all__ = ["ClusterSnapshot", "metadata_key", "message_key", "value_key"]


def value_key(value: object) -> str:
    """Canonical encoding of an arbitrary payload value."""
    return repr(value)


def metadata_key(metadata: ReplicaMetadata | None):
    """Canonical encoding of a (VN, SC, DS) triple (None passes through)."""
    if metadata is None:
        return None
    return (metadata.version, metadata.cardinality, metadata.distinguished)


def _field_key(value: object):
    if isinstance(value, ReplicaMetadata):
        return metadata_key(value)
    if isinstance(value, frozenset):
        return tuple(sorted(value))
    return value_key(value)


@functools.cache
def _payload_fields(message_type: type[Message]) -> tuple[str, ...]:
    """A message class's payload field names, sorted, envelope excluded."""
    return tuple(
        sorted(
            f.name
            for f in dataclasses.fields(message_type)
            if f.name not in ("run_id", "sender", "ctx")
        )
    )


def message_key(
    source: SiteId, destination: SiteId, message: Message
) -> tuple[str, int, SiteId, SiteId, str]:
    """Canonical encoding of one in-flight message (envelope + payload).

    The payload part walks the message's dataclass fields (beyond the
    ``run_id``/``sender`` envelope and the observability-only ``ctx``
    causal context, which never affects protocol behaviour) and renders
    them as one ``repr`` string, so keys for *different* message types
    still sort against each other (every component is a primitive).  Two
    messages encode equal exactly when they are equal values.
    """
    payload = repr(
        tuple(
            (name, _field_key(getattr(message, name)))
            for name in _payload_fields(type(message))
        )
    )
    return (
        type(message).__name__,
        message.run_id,
        source,
        destination,
        payload,
    )


@dataclass(frozen=True, slots=True)
class ClusterSnapshot:
    """One canonical, hashable encoding of a reachable system state.

    The snapshot *is* the fingerprint: two states behave identically in
    the future iff their snapshots are equal (modulo the conservative
    inclusion of finished-run statuses, which only reduces deduplication,
    never soundness).  It is also the only state the explorer carries
    between branches: the harness rebuilds the cluster from it
    (:meth:`~repro.check.harness.CheckHarness.replay` with ``start=``).
    """

    sites_up: tuple
    links_up: tuple
    site_state: tuple
    active_runs: tuple
    finished_runs: tuple
    pending_messages: tuple
    pending_timers: tuple
    budgets: tuple
    ops_remaining: tuple

    def digest(self) -> str:
        """Short stable hex digest for reports (not used for dedup)."""
        return hashlib.sha256(repr(self).encode("utf-8")).hexdigest()[:16]
