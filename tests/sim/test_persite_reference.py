"""The lumped vectorized batch against the per-site reference batch.

:class:`~repro.sim.vectorized.VectorizedReplicaBatch` keeps only the up
and current masks, SC and DS per replicate; :class:`PerSiteReplicaBatch`
keeps every copy's metadata and lets the kernels decide stale-only
partitions on stale metadata.  Both draw the same random streams, so
their outcomes -- estimates, failures, repairs, accepted and denied
updates -- must be identical, float for float.  Both run in this
process, so the comparison does not depend on the machine's ``log1p``.
"""

import pytest

from repro.sim.vectorized import VectorizedReplicaBatch, supported_protocols

from .persite_reference import PerSiteReplicaBatch

RATIOS = (0.25, 1 / 3, 1.0, 4.0)
SEEDS = (1, 2)
STREAMS = [f"persite:{i}" for i in range(4)]
BURN_IN = 20
EVENTS = 60


def _outcome(batch_cls, protocol, n, ratio, seed):
    batch = batch_cls(protocol, n, ratio, seed=seed, stream_names=STREAMS)
    batch.run(BURN_IN, accumulate=False)
    batch.run(EVENTS, accumulate=True)
    o = batch.outcome()
    return o.estimates, o.failures, o.repairs, o.accepted, o.denied, o.steps


@pytest.mark.parametrize("protocol", supported_protocols())
@pytest.mark.parametrize("n", [3, 4, 5, 8, 25, 63])
def test_outcome_matches_persite_reference(protocol, n):
    for ratio in RATIOS:
        for seed in SEEDS:
            case = (protocol, n, ratio, seed)
            lumped = _outcome(VectorizedReplicaBatch, *case)
            reference = _outcome(PerSiteReplicaBatch, *case)
            assert lumped == reference, case
