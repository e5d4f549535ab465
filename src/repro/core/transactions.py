"""Multi-file transactions (footnote 2 of the paper).

"Our work generalizes to the setting where transactions may update two or
more files.  Any such transaction T will require a distinguished partition
for every file in its read and write set."

:class:`MultiFileTransaction` implements that rule over any collection of
:class:`~repro.core.file.ReplicatedFile` objects -- the files may use
different protocols, be replicated at different site groups, and carry
different site orderings.  A transaction commits atomically: every file in
the write set must find the acting partition (projected onto that file's
sites) distinguished, and every file in the read set must grant a read
quorum; only then are all writes applied, in one step.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Any

from ..errors import QuorumDenied
from ..types import SiteId
from .decision import QuorumDecision
from .file import ReplicatedFile

__all__ = ["TransactionResult", "MultiFileTransaction"]


@dataclass(frozen=True)
class TransactionResult:
    """Outcome of a transaction attempt."""

    committed: bool
    decisions: Mapping[str, QuorumDecision]
    reads: Mapping[str, Any]

    def explain(self) -> str:
        """Per-file decision summary."""
        return "; ".join(
            f"{name}: {decision.explain()}"
            for name, decision in self.decisions.items()
        )


class MultiFileTransaction:
    """A transaction reading and writing several replicated files.

    Parameters
    ----------
    files:
        Name -> :class:`ReplicatedFile`.  Names identify files in the
        read/write sets and in the result.
    """

    def __init__(self, files: Mapping[str, ReplicatedFile]) -> None:
        if not files:
            raise QuorumDenied("a transaction needs at least one file")
        self._files = dict(files)

    @property
    def files(self) -> Mapping[str, ReplicatedFile]:
        """The managed files (read-only view)."""
        return dict(self._files)

    def _project(
        self, name: str, partition: frozenset[SiteId]
    ) -> frozenset[SiteId]:
        file = self._files[name]
        projected = partition & file.sites
        if not projected:
            raise QuorumDenied(
                f"partition contains no site holding file {name!r}"
            )
        return projected

    def attempt(
        self,
        partition: Iterable[SiteId],
        writes: Mapping[str, Any],
        reads: Iterable[str] = (),
    ) -> TransactionResult:
        """Try to commit ``writes`` and serve ``reads`` from ``partition``.

        All-or-nothing: if any file in the combined read/write set lacks a
        quorum within the partition, nothing is written and the result
        carries every file's decision for diagnosis.
        """
        members = frozenset(partition)
        read_set = set(reads)
        unknown = (set(writes) | read_set) - set(self._files)
        if unknown:
            raise QuorumDenied(f"transaction names unknown files {sorted(unknown)}")
        decisions: dict[str, QuorumDecision] = {}
        granted = True
        for name in sorted(set(writes) | read_set):
            file = self._files[name]
            projected = self._project(name, members)
            if name in writes:
                decision = file.is_distinguished(projected)
            else:
                decision = file.protocol.read_decision(projected, file.copies())
            decisions[name] = decision
            granted = granted and decision.granted
        if not granted:
            return TransactionResult(False, decisions, {})
        # Commit phase: all quorums held; apply reads first (values as of
        # the snapshot), then all writes.
        read_values = {
            name: self._files[name].read(self._project(name, members))
            for name in sorted(read_set)
        }
        for name, value in sorted(writes.items()):
            outcome = self._files[name].try_write(
                self._project(name, members), value
            )
            # The quorum was just checked under the same partition and no
            # state changed in between (single-threaded semantics), so the
            # write must succeed.
            assert outcome.accepted, (name, outcome.decision.explain())
        return TransactionResult(True, decisions, read_values)

    def execute(
        self,
        partition: Iterable[SiteId],
        writes: Mapping[str, Any],
        reads: Iterable[str] = (),
    ) -> TransactionResult:
        """Like :meth:`attempt`, raising :class:`QuorumDenied` on failure."""
        result = self.attempt(partition, writes, reads)
        if not result.committed:
            raise QuorumDenied(
                "transaction denied: " + result.explain()
            )
        return result
