"""Section VII protocol variants: the modified hybrid and the optimal candidate.

**Modified hybrid** (Changes 1 and 2): reproduces the hybrid algorithm's
accepted updates using only dynamic-linear's data structures (a *single*
distinguished site).  When exactly two sites perform an update, the
cardinality is set to 2 and the distinguished site names one of the sites
that is down -- "say, the site that most recently failed".  A cardinality-2
partition is then distinguished iff it holds both current copies, or one
current copy plus the named (down) site.  Under the paper's stochastic model
this yields exactly the hybrid algorithm's Markov chain: the pair of current
sites plus the named down site play the role of the hybrid's trio.

**Optimal candidate** (footnote 6): identical to the modified hybrid except
that a two-site update conceptually names *all other sites* as tie-breakers.
Implementably: a cardinality-2 partition is distinguished iff it holds both
current copies, or one current copy together with **more than half of all
sites**.  Preliminary evidence in the paper suggests this variant beats the
hybrid algorithm for large repair/failure ratios; our benchmarks test that
claim (experiment E10).
"""

from __future__ import annotations

from ..errors import ProtocolError
from ..types import SiteId
from .base import ReplicaControlProtocol
from .decision import QuorumDecision, Rule, UpdateContext
from .metadata import ReplicaMetadata

__all__ = ["ModifiedHybridProtocol", "OptimalCandidateProtocol"]


class _PairTiebreakProtocol(ReplicaControlProtocol):
    """Shared machinery of the two Section VII variants.

    Both behave like the hybrid's dynamic rules when the cardinality is at
    least 3 (majority of the current copies, or exactly half including the
    single distinguished site) and differ only in how a cardinality-2 state
    is escaped; subclasses supply that rule and the two-site commit entry.
    """

    def _decide(self, partition, max_version, current, meta) -> QuorumDecision:
        cardinality = meta.cardinality
        if cardinality >= 3:
            if self._dynamic_majority(current, cardinality):
                return QuorumDecision(
                    True, Rule.DYNAMIC_MAJORITY, max_version, current, cardinality
                )
            ties = 2 * len(current) == cardinality
            if (
                ties
                and len(meta.distinguished) == 1
                and meta.distinguished[0] in current
            ):
                return QuorumDecision(
                    True, Rule.LINEAR_TIEBREAK, max_version, current, cardinality
                )
            return self._denied(max_version, current, cardinality)
        # Cardinality 2 (or the degenerate 1): both current copies present,
        # or one of them plus the variant-specific tie-break.
        if len(current) == cardinality:
            return QuorumDecision(
                True, Rule.DYNAMIC_MAJORITY, max_version, current, cardinality
            )
        return self._pair_tiebreak(partition, max_version, current, meta)

    def _pair_tiebreak(self, partition, max_version, current, meta) -> QuorumDecision:
        raise NotImplementedError

    def _choose_down_site(
        self,
        partition: frozenset[SiteId],
        context: UpdateContext | None,
    ) -> SiteId:
        """Pick the down site named by a two-site commit (Change 1).

        Site crashes are detectable in the failure model, so the committing
        pair may name "the site that most recently failed" when a simulator
        supplies it through the update context; otherwise we fall back to
        the greatest site outside the partition, which is stochastically
        equivalent under the homogeneous model (the Theorem 2 relabelling
        argument).
        """
        if context is not None and context.recent_failure is not None:
            candidate = context.recent_failure
            if candidate in self.sites and candidate not in partition:
                return candidate
        outside = self.sites - partition
        if not outside:
            raise ProtocolError(
                "a two-site commit must name a site outside its partition, "
                f"and all {self.n_sites} sites are in it: {self.name} needs n >= 3"
            )
        return self.greatest(outside)


class ModifiedHybridProtocol(_PairTiebreakProtocol):
    """The modified hybrid algorithm (Section VII, Changes 1 and 2)."""

    name = "modified-hybrid"

    def _initial_distinguished(self) -> tuple[SiteId, ...]:
        if self.n_sites % 2 == 0:
            return (self.greatest(self.sites),)
        return ()

    def _pair_tiebreak(self, partition, max_version, current, meta) -> QuorumDecision:
        # One of the two current copies, plus the named down site, suffices.
        if (
            len(current) * 2 == meta.cardinality
            and len(meta.distinguished) == 1
            and meta.distinguished[0] in partition
        ):
            return QuorumDecision(
                True, Rule.LINEAR_TIEBREAK, max_version, current, meta.cardinality
            )
        return self._denied(max_version, current, meta.cardinality)

    def _commit_metadata(self, partition, decision, meta, context=None):
        size = len(partition)
        if size == 2:
            named = self._choose_down_site(partition, context)
            return ReplicaMetadata(decision.max_version + 1, 2, (named,))
        if size % 2 == 0:
            distinguished: tuple[SiteId, ...] = (self.greatest(partition),)
        else:
            distinguished = ()
        return ReplicaMetadata(decision.max_version + 1, size, distinguished)


class OptimalCandidateProtocol(_PairTiebreakProtocol):
    """The footnote-6 candidate for the optimal dynamic algorithm.

    A cardinality-2 partition with a single current copy is distinguished
    iff it contains more than half of *all* sites -- equivalently, the
    two-site update named every other site as a tie-breaking witness and a
    majority of those witnesses is required.
    """

    name = "optimal-candidate"

    def _initial_distinguished(self) -> tuple[SiteId, ...]:
        if self.n_sites % 2 == 0:
            return (self.greatest(self.sites),)
        return ()

    def _pair_tiebreak(self, partition, max_version, current, meta) -> QuorumDecision:
        if len(current) * 2 == meta.cardinality and 2 * len(partition) > self.n_sites:
            return QuorumDecision(
                True, Rule.GLOBAL_TIEBREAK, max_version, current, meta.cardinality
            )
        return self._denied(max_version, current, meta.cardinality)

    def _commit_metadata(self, partition, decision, meta, context=None):
        size = len(partition)
        if size == 2:
            # Conceptually DS := all sites but the two updaters; the decision
            # rule above never inspects the entry, so it stays empty.
            return ReplicaMetadata(decision.max_version + 1, 2, ())
        if size % 2 == 0:
            distinguished: tuple[SiteId, ...] = (self.greatest(partition),)
        else:
            distinguished = ()
        return ReplicaMetadata(decision.max_version + 1, size, distinguished)
