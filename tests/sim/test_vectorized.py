"""Tests for the vectorized structure-of-arrays Monte-Carlo backend.

Three layers of evidence that the numpy kernels implement the same
protocols as the scalar oracle:

* **exact parity** -- scripted event sequences replayed through both
  implementations must produce identical state at every step: the
  lumped state of the production batch, every copy's metadata in the
  per-site reference batch (``persite_reference.py``);
* **statistical agreement** -- free-running estimates from the two
  backends (and the analytic Markov values) must coincide up to
  Monte-Carlo noise, for every registered protocol;
* **bitwise determinism** -- a vectorized run is a pure function of the
  seed: identical across batch sizes and worker counts.
"""

import math
import random

import numpy as np
import pytest

from repro.core.decision import UpdateContext
from repro.core.registry import make_protocol, protocol_names
from repro.errors import SimulationError
from repro.markov import availability
from repro.obs.metrics import MetricsRegistry
from repro.sim import VectorizedReplicaBatch, estimate_availability, simulate_batch
from repro.sim.vectorized import (
    MAX_SITES,
    _kernel_for,
    ensure_supported,
    supported_protocols,
)
from repro.types import site_names

from .persite_reference import PerSiteReplicaBatch


def _scalar_trajectory(protocol_name, n, site_sequence):
    """Drive the real protocol objects through a scripted event sequence.

    Mirrors ``StochasticReplicaSystem.step`` exactly (toggle the site,
    then the frequent update by the full up set), returning the per-step
    (up set, copies, available) states.
    """
    sites = site_names(n)
    protocol = make_protocol(protocol_name, sites)
    copies = dict.fromkeys(sites, protocol.initial_metadata())
    up = set(sites)
    states = []
    for site_index in site_sequence:
        site = sites[site_index]
        was_up = site in up
        if was_up:
            up.discard(site)
        else:
            up.add(site)
        if not up:
            available = False
        else:
            context = UpdateContext(recent_failure=site if was_up else None)
            outcome = protocol.attempt_update(frozenset(up), copies, context)
            if outcome.accepted:
                for member in up:
                    copies[member] = outcome.metadata
                available = True
            else:
                available = False
        states.append((frozenset(up), dict(copies), available))
    return sites, states


def _mask(meta, index):
    """The distinguished-sites entry of ``meta`` as a site bitmask."""
    return sum(1 << index[d] for d in meta.distinguished)


class TestExactParity:
    """Scripted replay: kernels match the scalar protocols event by event.

    The per-site reference batch is held to every copy's version, SC and
    DS; the production batch, which keeps the lumped state, to the up
    set, the current set and the SC/DS of a current copy.
    """

    @pytest.mark.parametrize("protocol", supported_protocols())
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_metadata_matches_scalar_oracle(self, protocol, n):
        rng = random.Random(f"{protocol}:{n}")
        sequence = [rng.randrange(n) for _ in range(300)]
        sites, states = _scalar_trajectory(protocol, n, sequence)
        index = {site: i for i, site in enumerate(sites)}
        batch = VectorizedReplicaBatch(
            protocol, n, 1.0, seed=1, stream_names=["parity"]
        )
        reference = PerSiteReplicaBatch(
            protocol, n, 1.0, seed=1, stream_names=["parity"]
        )
        for step, site_index in enumerate(sequence):
            batch.force_events(np.array([site_index]))
            reference.force_events(np.array([site_index]))
            up_set, copies, available = states[step]
            expected_up = np.array([site in up_set for site in sites])
            newest = max(meta.version for meta in copies.values())
            current = [site for site in sites if copies[site].version == newest]
            meta = copies[current[0]]
            for b in (batch, reference):
                assert bool(b.available[0]) == available, (protocol, n, step)
                assert (b.up[0] == expected_up).all(), (protocol, n, step)
            expected_current = np.array([site in current for site in sites])
            assert (batch.current[0] == expected_current).all(), (protocol, n, step)
            assert batch.sc[0] == meta.cardinality, (protocol, n, step)
            assert int(batch.ds[0]) == _mask(meta, index), (protocol, n, step)
            vn = reference.site_vn[0]
            sc = reference.site_sc[0]
            ds = reference.site_ds[0]
            for site in sites:
                meta = copies[site]
                i = index[site]
                assert vn[i] == meta.version, (protocol, n, step, site)
                assert sc[i] == meta.cardinality, (protocol, n, step, site)
                assert int(ds[i]) == _mask(meta, index), (protocol, n, step, site)

    def test_all_registered_protocols_have_kernels(self):
        assert set(supported_protocols()) == set(protocol_names())

    @pytest.mark.parametrize("n", [5, 53, 54, 63])
    def test_greatest_site_bit_is_exact_at_every_width(self, n):
        # float64 holds 53 bits, so masks past that can round up a bit.
        rng = random.Random(n)
        masks = [0, 1, (1 << n) - 1, 1 << (n - 1), (1 << n) - 2]
        masks += [rng.getrandbits(rng.randint(1, n)) for _ in range(500)]
        kernel = _kernel_for(make_protocol("hybrid", site_names(n)))
        top = kernel._top_bit(np.array(masks, dtype=np.uint64))
        assert [int(x) for x in top] == [
            1 << (m.bit_length() - 1) if m else 0 for m in masks
        ]


class TestStatisticalAgreement:
    """Free-running estimates agree between backends and with analytics."""

    KWARGS = dict(replicates=8, events=3_000, burn_in_events=200, seed=17)

    @pytest.mark.parametrize("protocol", supported_protocols())
    def test_backends_agree_all_protocols(self, protocol):
        scalar = estimate_availability(protocol, 5, 1.0, **self.KWARGS)
        vectorized = estimate_availability(
            protocol, 5, 1.0, **self.KWARGS, backend="vectorized"
        )
        # Two-sample bound: both means are noisy, so compare against the
        # combined standard error at the wide-CI z the repo uses.
        bound = 4.4 * math.sqrt(scalar.stderr**2 + vectorized.stderr**2)
        assert abs(scalar.mean - vectorized.mean) <= bound
        assert vectorized.backend == "vectorized"
        assert scalar.backend == "scalar"

    @pytest.mark.parametrize(
        "protocol,n,ratio",
        [
            ("dynamic", 4, 0.5),
            ("dynamic-linear", 6, 2.0),
            ("hybrid", 7, 1.0),
            ("voting", 5, 5.0),
        ],
    )
    def test_backends_agree_across_grid_points(self, protocol, n, ratio):
        scalar = estimate_availability(protocol, n, ratio, **self.KWARGS)
        vectorized = estimate_availability(
            protocol, n, ratio, **self.KWARGS, backend="vectorized"
        )
        bound = 4.4 * math.sqrt(scalar.stderr**2 + vectorized.stderr**2)
        assert abs(scalar.mean - vectorized.mean) <= bound

    @pytest.mark.parametrize("protocol", ["voting", "dynamic", "hybrid"])
    def test_vectorized_agrees_with_analytic(self, protocol):
        result = estimate_availability(
            protocol, 5, 1.0, replicates=8, events=6_000, seed=29,
            backend="vectorized",
        )
        assert result.agrees_with(availability(protocol, 5, 1.0))


class TestBitwiseDeterminism:
    """A vectorized trajectory is a pure function of (seed, replicate)."""

    KWARGS = dict(replicates=9, events=1_200, burn_in_events=100, seed=11)

    def test_identical_across_batch_sizes(self):
        results = [
            estimate_availability(
                "hybrid", 5, 1.0, **self.KWARGS,
                backend="vectorized", batch_size=batch_size,
            )
            for batch_size in (None, 1, 2, 4, 9, 64)
        ]
        assert all(result == results[0] for result in results)

    def test_identical_across_workers(self):
        serial = estimate_availability(
            "dynamic", 5, 1.0, **self.KWARGS,
            backend="vectorized", batch_size=3, workers=1,
        )
        parallel = estimate_availability(
            "dynamic", 5, 1.0, **self.KWARGS,
            backend="vectorized", batch_size=3, workers=2,
        )
        assert parallel == serial  # bitwise: frozen dataclass of floats

    def test_metric_snapshot_identical_across_workers(self):
        snapshots = []
        for workers in (1, 2):
            registry = MetricsRegistry()
            estimate_availability(
                "dynamic-linear", 4, 1.0, **self.KWARGS,
                backend="vectorized", batch_size=3, workers=workers,
                metrics=registry,
            )
            snapshots.append(registry.snapshot())
        # Includes mc.vectorized.steps/batches: the batch layout is fixed
        # by batch_size, never by the worker count.
        assert snapshots[0] == snapshots[1]

    def test_seed_changes_results(self):
        a = estimate_availability(
            "hybrid", 5, 1.0, **{**self.KWARGS, "seed": 1}, backend="vectorized"
        )
        b = estimate_availability(
            "hybrid", 5, 1.0, **{**self.KWARGS, "seed": 2}, backend="vectorized"
        )
        assert a.mean != b.mean

    def test_simulate_batch_replicates_are_independent_of_batchmates(self):
        names = [f"replicate:{i}" for i in range(6)]
        together = simulate_batch(
            "hybrid", 5, 1.0, events=800, burn_in_events=50, seed=5,
            stream_names=names,
        )
        alone = [
            simulate_batch(
                "hybrid", 5, 1.0, events=800, burn_in_events=50, seed=5,
                stream_names=[name],
            ).estimates[0]
            for name in names
        ]
        assert list(together.estimates) == alone


class TestTelemetry:
    def test_backend_and_step_series(self):
        registry = MetricsRegistry()
        result = estimate_availability(
            "hybrid", 5, 1.0, replicates=6, events=500, burn_in_events=100,
            seed=3, backend="vectorized", batch_size=3, metrics=registry,
        )
        snapshot = registry.snapshot()
        assert snapshot["mc.backend"]["value"] == 1.0
        assert snapshot["mc.vectorized.batches"]["value"] == 2
        # Two batches each advance (events + burn_in) numpy steps.
        assert snapshot["mc.vectorized.steps"]["value"] == 2 * 600
        assert "mc.events_per_sec" in registry.wall_clock_snapshot()
        assert 0.0 < result.mean < 1.0

    def test_scalar_backend_gauge_is_zero(self):
        registry = MetricsRegistry()
        estimate_availability(
            "voting", 3, 1.0, replicates=3, events=400, seed=3,
            metrics=registry,
        )
        snapshot = registry.snapshot()
        assert snapshot["mc.backend"]["value"] == 0.0
        assert "mc.vectorized.steps" not in snapshot


class TestErrors:
    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError, match="unknown backend"):
            estimate_availability(
                "voting", 3, 1.0, replicates=2, events=100, backend="gpu"
            )

    def test_callable_protocol_rejected(self):
        from repro.core import HybridProtocol

        with pytest.raises(SimulationError, match="registry name"):
            estimate_availability(
                HybridProtocol, 3, 1.0, replicates=2, events=100,
                backend="vectorized",
            )

    def test_batch_size_rejected_for_scalar(self):
        with pytest.raises(SimulationError, match="batch_size"):
            estimate_availability(
                "voting", 3, 1.0, replicates=2, events=100, batch_size=4
            )

    def test_nonpositive_batch_size_rejected(self):
        with pytest.raises(SimulationError, match="batch size"):
            estimate_availability(
                "voting", 3, 1.0, replicates=2, events=100,
                backend="vectorized", batch_size=0,
            )

    def test_too_many_sites_rejected(self):
        with pytest.raises(SimulationError, match="at most"):
            ensure_supported("voting", MAX_SITES + 1)

    def test_modified_hybrid_needs_three_sites(self):
        with pytest.raises(SimulationError, match="n >= 3"):
            ensure_supported("modified-hybrid", 2)

    def test_empty_batch_rejected(self):
        with pytest.raises(SimulationError, match="at least one"):
            VectorizedReplicaBatch("voting", 3, 1.0, seed=1, stream_names=[])

    @pytest.mark.parametrize(
        "site,match",
        [
            ([0], "one integer site index per replicate"),
            ([0, 1, 2, -1], r"\[0, 3\); got \[-1\]"),
            ([0, 3, 1, 2], r"\[0, 3\); got \[3\]"),
            ([0.0, 1.0, 2.0, 0.0], "one integer site index per replicate"),
        ],
        ids=["one-site-for-four-replicates", "negative", "n", "float"],
    )
    def test_force_events_rejects_bad_sites(self, site, match):
        batch = VectorizedReplicaBatch(
            "hybrid", 3, 1.0, seed=1, stream_names=["a", "b", "c", "d"]
        )
        with pytest.raises(SimulationError, match=match):
            batch.force_events(np.array(site))
        assert batch.steps == 0
        assert batch.up.all()

    def test_negative_events_rejected(self):
        batch = VectorizedReplicaBatch(
            "voting", 3, 1.0, seed=1, stream_names=["x"]
        )
        with pytest.raises(SimulationError, match="nonnegative"):
            batch.run(-1, accumulate=True)
