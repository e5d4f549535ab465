"""Optimal static vote assignment search (heterogeneous sites).

The paper's closing challenge cites the line of work on optimal *static*
assignments in heterogeneous models (Garcia-Molina & Barbara's "How to
assign votes in a distributed system", Ahamad & Ammar, Barbara &
Garcia-Molina).  This module provides the exact brute-force answer for
small systems: enumerate vote assignments up to a total-vote budget,
evaluate each exactly against per-site up-probabilities, and return the
maximiser.  It exists both as a usable tool and as the baseline that the
heterogeneous *dynamic* analysis (:mod:`repro.markov.heterogeneous`) is
compared against.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from ..errors import ProtocolError
from ..types import SiteId, validate_sites
from .vote_assignment import VoteAssignment

__all__ = [
    "OptimalAssignment",
    "optimal_vote_assignment",
    "local_search_vote_assignment",
]


@dataclass(frozen=True)
class OptimalAssignment:
    """The winning assignment and its exact availability."""

    assignment: VoteAssignment
    availability: float
    measure: str
    evaluated: int

    @property
    def votes(self) -> Mapping[SiteId, int]:
        """The winning vote table."""
        return self.assignment.votes


def optimal_vote_assignment(
    sites: Sequence[SiteId],
    up_probability: Mapping[SiteId, float],
    max_votes_per_site: int = 3,
    measure: str = "site",
) -> OptimalAssignment:
    """Exhaustively find the availability-maximising vote assignment.

    Enumerates every assignment with per-site votes in
    ``0..max_votes_per_site`` (at least one positive vote), evaluating the
    chosen availability measure exactly via subset enumeration.  Intended
    for the small *n* regime (the search space is
    ``(max_votes_per_site+1)**n``); raises for searches beyond ~10^6
    candidates.

    Ties break toward the lexicographically smallest vote vector, making
    the result deterministic.
    """
    sites = validate_sites(sites)
    if measure not in ("site", "traditional"):
        raise ProtocolError(f"unknown measure {measure!r}")
    if max_votes_per_site < 1:
        raise ProtocolError("max_votes_per_site must be at least 1")
    space = (max_votes_per_site + 1) ** len(sites)
    if space > 10**6:
        raise ProtocolError(
            f"search space of {space} assignments is too large for "
            "exhaustive search; lower max_votes_per_site or n"
        )
    ordered = sorted(sites)
    best: tuple[float, tuple[int, ...]] | None = None
    evaluated = 0
    for votes in itertools.product(
        range(max_votes_per_site + 1), repeat=len(ordered)
    ):
        if not any(votes):
            continue
        assignment = VoteAssignment.weighted(
            ordered, dict(zip(ordered, votes))
        )
        if measure == "site":
            value = assignment.site_availability(up_probability)
        else:
            value = assignment.availability(up_probability)
        evaluated += 1
        key = (value, tuple(-v for v in votes))
        if best is None or key > best:
            best = key
    assert best is not None
    winning_votes = tuple(-v for v in best[1])
    winning = VoteAssignment.weighted(ordered, dict(zip(ordered, winning_votes)))
    return OptimalAssignment(winning, best[0], measure, evaluated)


def _search_seeds(
    ordered: Sequence[SiteId],
    up_probability: Mapping[SiteId, float],
    max_votes_per_site: int,
) -> list[dict[SiteId, int]]:
    """Deterministic starting assignments covering the known optimum shapes.

    The exhaustive winners on small heterogeneous instances fall into a
    few structural families -- near-uniform, dictator (one dominant
    site), majority-of-the-reliable, and rank-tiered weights -- and
    coordinate ascent from a single start routinely stalls one family
    away from the optimum.  One ascent per seed, best result wins.
    """
    by_reliability = sorted(ordered, key=lambda s: (-up_probability[s], s))
    seeds: list[dict[SiteId, int]] = [dict.fromkeys(ordered, 1)]
    dictator = dict.fromkeys(ordered, 0)
    dictator[by_reliability[0]] = 1
    seeds.append(dictator)
    half = len(ordered) // 2 + 1
    top_half = set(by_reliability[:half])
    seeds.append({s: (1 if s in top_half else 0) for s in ordered})
    tiered = {
        site: max(
            max_votes_per_site
            - (rank * (max_votes_per_site + 1)) // len(ordered),
            0,
        )
        for rank, site in enumerate(by_reliability)
    }
    if sum(tiered.values()) == 0:
        tiered[by_reliability[0]] = 1
    seeds.append(tiered)
    return seeds


def local_search_vote_assignment(
    sites: Sequence[SiteId],
    up_probability: Mapping[SiteId, float],
    max_votes_per_site: int = 3,
    measure: str = "site",
    max_moves: int = 500,
) -> OptimalAssignment:
    """Deterministic multi-start local search for large site sets.

    The exhaustive search above is capped near n=10; this is the n=25+
    counterpart.  From each seed in :func:`_search_seeds` it runs
    steepest-ascent over two move families -- set one site's votes to any
    other value in ``0..max_votes_per_site``, or transfer one vote
    between two sites -- taking the single best strictly-improving move
    per step until none remains, then returns the best of the converged
    runs.  Everything is ordered and tie-free (strict improvement only),
    so results are deterministic.

    Candidates are evaluated by the polynomial DP evaluator
    (``method="dp"``), so an n=25 search costs a few thousand DP passes
    instead of 4**25 enumerations.  The result is a local optimum in
    general; the tests pin it to the exhaustive optimum's availability on
    a panel of small heterogeneous instances under both measures.
    """
    sites = validate_sites(sites)
    if measure not in ("site", "traditional"):
        raise ProtocolError(f"unknown measure {measure!r}")
    if max_votes_per_site < 1:
        raise ProtocolError("max_votes_per_site must be at least 1")
    if max_moves < 1:
        raise ProtocolError("max_moves must be at least 1")
    ordered = sorted(sites)

    def evaluate(votes: Mapping[SiteId, int]) -> float:
        assignment = VoteAssignment.weighted(ordered, votes)
        if measure == "site":
            return assignment.site_availability(up_probability, method="dp")
        return assignment.availability(up_probability, method="dp")

    def candidates(votes: dict[SiteId, int]) -> list[dict[SiteId, int]]:
        moves: list[dict[SiteId, int]] = []
        for site in ordered:
            for value in range(max_votes_per_site + 1):
                if value == votes[site]:
                    continue
                trial = dict(votes)
                trial[site] = value
                if sum(trial.values()) > 0:
                    moves.append(trial)
        for donor in ordered:
            if votes[donor] == 0:
                continue
            for receiver in ordered:
                if receiver == donor or votes[receiver] >= max_votes_per_site:
                    continue
                trial = dict(votes)
                trial[donor] -= 1
                trial[receiver] += 1
                moves.append(trial)
        return moves

    best: tuple[float, dict[SiteId, int]] | None = None
    evaluated = 0
    for seed in _search_seeds(ordered, up_probability, max_votes_per_site):
        votes = dict(seed)
        value = evaluate(votes)
        evaluated += 1
        for _ in range(max_moves):
            move: tuple[float, dict[SiteId, int]] | None = None
            for trial in candidates(votes):
                trial_value = evaluate(trial)
                evaluated += 1
                if trial_value > value and (
                    move is None or trial_value > move[0]
                ):
                    move = (trial_value, trial)
            if move is None:
                break
            value, votes = move
        if best is None or value > best[0]:
            best = (value, votes)
    assert best is not None
    winning = VoteAssignment.weighted(ordered, best[1])
    return OptimalAssignment(winning, best[0], measure, evaluated)
