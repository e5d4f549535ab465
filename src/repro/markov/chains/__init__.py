"""Closed-form availabilities of the static protocols (Section VI).

Every chain protocol's chain comes from :func:`repro.markov.chain_for`,
which derives it from the protocol code; what stays here are the
binomial forms that need no chain at all.
"""

from __future__ import annotations

from .voting import (
    primary_copy_availability,
    primary_copy_availability_float,
    primary_site_voting_availability,
    primary_site_voting_availability_float,
    voting_availability,
    voting_availability_float,
)

__all__ = [
    "voting_availability",
    "primary_site_voting_availability",
    "primary_copy_availability",
    "voting_availability_float",
    "primary_site_voting_availability_float",
    "primary_copy_availability_float",
]
