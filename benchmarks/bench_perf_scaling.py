"""Perf smoke benchmark: backends, parallel replicates, batched solves.

Measures the speedup paths of docs/PERFORMANCE.md on a small, CI-sized
workload and -- more importantly -- asserts their correctness contracts:
the 2-worker Monte-Carlo run is *bitwise identical* to the serial one,
the batched / Horner grid sweeps agree with the per-point reference to
1e-12, and the vectorized backend's estimate sits inside the wide-CI
band of both the analytic value and the scalar oracle.  Process-pool
speedups are printed (and captured in the ``BENCH_perf`` manifest under
``REPRO_BENCH_MANIFEST_DIR``) but never asserted: CI machines may expose
a single core, where the pool legitimately wins nothing.  The vectorized
backend's throughput *is* asserted (>= 10x events/sec over scalar at
n = 5): its win is per-core numpy batching, not parallelism, so it does
not depend on the machine's core count.

Every run also appends lightweight :class:`repro.bench.BenchRecord`
entries (scenario ids shared with ``repro bench run --suite perf``) to
the JSONL history under ``benchmarks/manifests/`` -- the time axis the
``repro bench compare`` regression gate and the committed
``BENCH_perf.json`` trajectory are built from (docs/BENCHMARKING.md).

Unlike the figure benchmarks this module does not use the
pytest-benchmark fixture, so the telemetry-smoke CI job can run it with
plain pytest.
"""

from __future__ import annotations

import math
from pathlib import Path

import repro.sim
from repro.analysis import render_table
from repro.core import make_protocol
from repro.markov import (
    LUMP_SIGNATURES,
    availability,
    availability_grid,
    availability_symbolic,
    chain_for,
    clear_symbolic_cache,
    derive_chain,
    derive_lumped_chain,
)
from repro.markov.availability import _chain
from repro.netsim import ReplicaCluster
from repro.obs import Stopwatch, use
from repro.obs.causal import NULL_CAUSAL
from repro.sim import estimate_availability
from repro.types import site_names

MC_KWARGS = dict(replicates=6, events=4_000, seed=2026)
#: Default burn-in of estimate_availability, counted into events/sec.
MC_BURN_IN = 1_000
#: The vectorized backend amortises per-step numpy overhead across the
#: batch, so its showcase workload runs many replicates at once.
VECTOR_KWARGS = dict(replicates=256, events=2_000, seed=2026)
#: Floor asserted on vectorized-over-scalar events/sec at n = 5.
VECTOR_MIN_SPEEDUP = 10.0
GRID = [0.1 + 19.9 * i / 199 for i in range(200)]
CHAIN_PROTOCOLS = ("dynamic", "dynamic-linear", "hybrid")
#: Largest n where the site-labelled dense pipeline is still tractable
#: (dynamic at n=7 is 2136 states; n=8 would cross the dense
#: materialization limit).  The lump-then-solve comparison runs here.
DENSE_CEILING_N = 7
#: Spot ratios for the dense-vs-lumped pipeline race (per-point dense
#: solves at 2136 states are ~0.25s each, so the dense side stays small).
DENSE_RACE_RATIOS = (0.5, 1.0, 2.0, 5.0)
#: Floor asserted on the lump-then-solve pipeline speedup over the dense
#: site-labelled pipeline at DENSE_CEILING_N (measured ~400x; the floor
#: is a deliberately loose contract, not the observed win).
LUMP_MIN_SPEEDUP = 5.0
#: The large-n scenarios: lumped state spaces are O(n) blocks, so a
#: 60-point grid at n=25 solves in milliseconds.
LARGE_N = 25
LARGE_GRID = [0.1 + 19.9 * i / 59 for i in range(60)]
LARGE_PROTOCOLS = ("dynamic", "hybrid", "optimal-candidate")
#: Ceiling on the *enabled* tracing tax: traced over untraced netsim.
#: Tracing emits one causal event per transition (send, deliver, timer,
#: vote, commit, install, topology change) and nothing else; this measures
#: ~3.5-4x on this op-dense micro-workload (median 3.7 over 16 min-of-5
#: readings, 2-core x86_64 VM) -- the workload is nothing but traced
#: protocol steps, so this is the worst case, and the bound is a blowup
#: guard, not a cost-free claim.  It keeps the 1.5x headroom the earlier
#: guard (causal over trace-only, <= 4.0 against a median of 2.6) had.  The ≤5% contract belongs to the
#: *disabled* default: an untraced cluster shares the NULL_CAUSAL null
#: object (asserted below), and the sim layer (both Monte-Carlo backends)
#: has no causal seam at all (also asserted below), so those paths pay
#: one attribute check at most.
TRACED_CEILING = 5.6
#: Rounds of the scripted netsim workload per causal-overhead batch.
CAUSAL_ROUNDS = 20
#: Untraced and traced batches per side of the tracing ratio; each side
#: keeps its fastest batch.
TRACE_BATCHES = 6


def _timed(fn):
    stopwatch = Stopwatch()
    result = fn()
    return result, stopwatch.seconds


def test_perf_scaling_smoke(bench_manifest):
    rows = []

    # -- Parallel Monte-Carlo: serial vs two workers, bitwise identical.
    with use(bench_manifest.registry):
        serial, serial_s = _timed(
            lambda: estimate_availability(
                "hybrid", 5, 1.0, **MC_KWARGS,
                metrics=bench_manifest.registry, workers=1,
            )
        )
    parallel, parallel_s = _timed(
        lambda: estimate_availability("hybrid", 5, 1.0, **MC_KWARGS, workers=2)
    )
    assert parallel == serial, "parallel Monte-Carlo must be bitwise serial"
    rows.append(["montecarlo replicates", serial_s, parallel_s, serial_s / parallel_s])

    # -- Vectorized backend: events/sec against the scalar oracle, plus
    #    the statistical-agreement contract of docs/PERFORMANCE.md.
    with use(bench_manifest.registry):
        vectorized, vectorized_s = _timed(
            lambda: estimate_availability(
                "hybrid", 5, 1.0, **VECTOR_KWARGS,
                metrics=bench_manifest.registry, backend="vectorized",
            )
        )
    scalar_events = MC_KWARGS["replicates"] * (MC_KWARGS["events"] + MC_BURN_IN)
    vector_events = VECTOR_KWARGS["replicates"] * (
        VECTOR_KWARGS["events"] + MC_BURN_IN
    )
    scalar_eps = scalar_events / serial_s
    vector_eps = vector_events / vectorized_s
    bench_manifest.record(
        "mc.scalar.hybrid.n5",
        seed=MC_KWARGS["seed"],
        params={"protocol": "hybrid", "n_sites": 5, "ratio": 1.0,
                "backend": "scalar", "workers": 1,
                "burn_in_events": MC_BURN_IN, **MC_KWARGS},
        timings={"wall_s": serial_s, "events_per_sec": scalar_eps,
                 "workers2_wall_s": parallel_s},
    )
    bench_manifest.record(
        "mc.vectorized.hybrid.n5",
        seed=VECTOR_KWARGS["seed"],
        params={"protocol": "hybrid", "n_sites": 5, "ratio": 1.0,
                "backend": "vectorized", "workers": 1,
                "burn_in_events": MC_BURN_IN, **VECTOR_KWARGS},
        timings={"wall_s": vectorized_s, "events_per_sec": vector_eps},
    )
    throughput = vector_eps / scalar_eps
    analytic = availability("hybrid", 5, 1.0)
    assert vectorized.agrees_with(analytic), "vectorized drifted from analytic"
    assert serial.agrees_with(analytic), "scalar drifted from analytic"
    two_sample = 4.4 * math.sqrt(serial.stderr**2 + vectorized.stderr**2)
    assert abs(vectorized.mean - serial.mean) <= two_sample, (
        "vectorized and scalar backends disagree beyond Monte-Carlo noise"
    )
    assert throughput >= VECTOR_MIN_SPEEDUP, (
        f"vectorized backend managed only {throughput:.1f}x events/sec over "
        f"scalar at n=5 (contract: >= {VECTOR_MIN_SPEEDUP:.0f}x)"
    )
    # Per-event cost columns (microseconds, else the table rounds them to
    # zero), so speedup keeps the base/fast convention.
    rows.append(
        ["vectorized us/event", 1e6 / scalar_eps, 1e6 / vector_eps, throughput]
    )
    gauges = bench_manifest.registry.scope("bench.perf.vectorized")
    gauges.gauge("events_per_sec", wall_clock=True).set(vector_eps)
    gauges.gauge("scalar_events_per_sec", wall_clock=True).set(scalar_eps)

    # -- Grid solves: per-point vs one stacked solve vs Horner sweep.
    clear_symbolic_cache()
    batched_total_s = 0.0
    for protocol in CHAIN_PROTOCOLS:
        chain = chain_for(protocol, 5)
        per_point, per_point_s = _timed(
            lambda: [chain.availability(ratio) for ratio in GRID]
        )
        with use(bench_manifest.registry):
            batched, batched_s = _timed(
                lambda: availability_grid(protocol, 5, GRID, prefer_symbolic=False)
            )
        assert max(
            abs(a - b) for a, b in zip(per_point, batched)
        ) <= 1e-12, f"batched grid drifted from per-point for {protocol}"
        batched_total_s += batched_s
        rows.append(
            [f"{protocol} grid ({len(GRID)} pts)", per_point_s, batched_s,
             per_point_s / batched_s]
        )

    # -- Symbolic Horner fast path (cache populated once, then swept).
    availability_symbolic("hybrid", 5)
    with use(bench_manifest.registry):
        horner, horner_s = _timed(
            lambda: availability_grid("hybrid", 5, GRID, prefer_symbolic=True)
        )
    numeric = availability_grid("hybrid", 5, GRID, prefer_symbolic=False)
    assert max(abs(a - b) for a, b in zip(horner, numeric)) <= 1e-9
    per_point_s = next(r[1] for r in rows if r[0].startswith("hybrid"))
    rows.append(
        [f"hybrid horner ({len(GRID)} pts)", per_point_s, horner_s,
         per_point_s / horner_s]
    )
    clear_symbolic_cache()
    bench_manifest.record(
        "markov.grid.batched.n5",
        params={"protocols": list(CHAIN_PROTOCOLS), "n_sites": 5,
                "grid_points": len(GRID)},
        timings={
            "solve_batch_s": batched_total_s,
            "points_per_sec": len(CHAIN_PROTOCOLS) * len(GRID) / batched_total_s,
        },
    )
    bench_manifest.record(
        "markov.grid.horner.n5",
        params={"protocol": "hybrid", "n_sites": 5, "grid_points": len(GRID)},
        timings={
            "horner_sweep_s": horner_s,
            "points_per_sec": len(GRID) / horner_s,
        },
    )

    # -- Lump-then-solve vs the dense site-labelled pipeline, raced at
    #    the largest n where dense is still tractable.  Both sides pay
    #    their full cost: chain construction plus every spot-ratio solve.
    protocol_obj = make_protocol("dynamic", site_names(DENSE_CEILING_N))
    with use(bench_manifest.registry):
        dense_vals, dense_s = _timed(
            lambda: [
                derive_chain(protocol_obj).availability(ratio, solver="dense")
                for ratio in DENSE_RACE_RATIOS
            ]
        )
    signature = LUMP_SIGNATURES["dynamic"].signature(protocol_obj)
    with use(bench_manifest.registry):
        lumped_vals, lumped_s = _timed(
            lambda: [
                derive_lumped_chain(protocol_obj, signature).availability(
                    ratio, solver="sparse"
                )
                for ratio in DENSE_RACE_RATIOS
            ]
        )
    assert max(
        abs(a - b) for a, b in zip(dense_vals, lumped_vals)
    ) <= 1e-9, "lumped-sparse pipeline drifted from the dense site-labelled one"
    lump_speedup = dense_s / lumped_s
    assert lump_speedup >= LUMP_MIN_SPEEDUP, (
        f"lump-then-solve managed only {lump_speedup:.1f}x over the dense "
        f"site-labelled pipeline at n={DENSE_CEILING_N} "
        f"(contract: >= {LUMP_MIN_SPEEDUP:.0f}x)"
    )
    rows.append(
        [f"lump+sparse n={DENSE_CEILING_N} ({len(DENSE_RACE_RATIOS)} pts)",
         dense_s, lumped_s, lump_speedup]
    )
    gauges = bench_manifest.registry.scope("bench.perf.lumped")
    gauges.gauge("pipeline_speedup", wall_clock=True).set(lump_speedup)

    # -- The n=25 scenarios of `repro bench run --suite perf`: a cold
    #    lumped build+solve sweep, then a warm sparse-forced sweep.
    _chain.cache_clear()
    with use(bench_manifest.registry):
        _, lumped25_s = _timed(
            lambda: [
                availability_grid(
                    name, LARGE_N, LARGE_GRID, prefer_symbolic=False
                )
                for name in LARGE_PROTOCOLS
            ]
        )
    with use(bench_manifest.registry):
        _, sparse25_s = _timed(
            lambda: [
                availability_grid(
                    name, LARGE_N, LARGE_GRID,
                    prefer_symbolic=False, solver="sparse",
                )
                for name in LARGE_PROTOCOLS
            ]
        )
    large_points = len(LARGE_PROTOCOLS) * len(LARGE_GRID)
    bench_manifest.record(
        "markov.lumped.n25",
        params={"protocols": list(LARGE_PROTOCOLS), "n_sites": LARGE_N,
                "grid_points": len(LARGE_GRID)},
        timings={
            "lumped_wall_s": lumped25_s,
            "points_per_sec": large_points / lumped25_s,
        },
    )
    bench_manifest.record(
        "markov.sparse.n25",
        params={"protocols": list(LARGE_PROTOCOLS), "n_sites": LARGE_N,
                "grid_points": len(LARGE_GRID), "solver": "sparse"},
        timings={
            "sparse_wall_s": sparse25_s,
            "points_per_sec": large_points / sparse25_s,
        },
    )
    rows.append(
        [f"n={LARGE_N} grid cold/warm ({len(LARGE_GRID)} pts)",
         lumped25_s, sparse25_s, lumped25_s / sparse25_s]
    )

    # -- Causal tracing: the disabled default must be the null object and
    #    the sim layer causal-free (the "~0% when disabled / no MC seam"
    #    contract); the enabled mode is gated against pathological blowup.
    def _netsim_batch(trace: bool) -> float:
        stopwatch = Stopwatch()
        for _ in range(CAUSAL_ROUNDS):
            sites = site_names(5)
            cluster = ReplicaCluster(
                make_protocol("hybrid", sites), initial_value="v0", trace=trace,
            )
            cluster.submit_update(sites[0], "v1")
            cluster.settle()
            cluster.fail_site(sites[-1])
            cluster.submit_update(sites[0], "v2")
            cluster.settle()
            cluster.repair_site(sites[-1])
            cluster.settle()
            cluster.submit_read(sites[1])
            cluster.settle()
        return stopwatch.seconds

    # The batches alternate, so a busy spell on a shared machine slows
    # both sides of the ratio, not one.
    off_s = traced_s = math.inf
    for _ in range(TRACE_BATCHES):
        off_s = min(off_s, _netsim_batch(False))
        traced_s = min(traced_s, _netsim_batch(True))
    traced_ratio = traced_s / off_s
    disabled = ReplicaCluster(make_protocol("hybrid", site_names(3)))
    assert disabled.causal is NULL_CAUSAL, (
        "causal=False must share the NULL_CAUSAL null object (per-cluster "
        "tracer state would be silent disabled-path overhead)"
    )
    assert disabled.trace_log is None, "causal=False must not allocate a log"
    for source in Path(repro.sim.__file__).parent.glob("*.py"):
        assert "causal" not in source.read_text(encoding="utf-8"), (
            f"{source.name}: the sim layer (both Monte-Carlo backends) must "
            "stay causal-free -- tracing enabled or not, MC pays nothing"
        )
    assert traced_ratio <= TRACED_CEILING, (
        f"enabled tracing costs {traced_ratio:.2f}x over untraced netsim "
        f"(blowup guard: <= {TRACED_CEILING:.1f}x)"
    )
    rows.append(
        [f"netsim causal trace ({CAUSAL_ROUNDS} rounds)", off_s, traced_s,
         off_s / traced_s]
    )
    bench_manifest.record(
        "netsim.causal.overhead.n5",
        params={"protocol": "hybrid", "n_sites": 5, "rounds": CAUSAL_ROUNDS,
                "batches": TRACE_BATCHES},
        timings={
            "netsim_off_s": off_s,
            "netsim_traced_s": traced_s,
            "traced_overhead_ratio": traced_ratio,
        },
    )
    gauges = bench_manifest.registry.scope("bench.perf.causal")
    gauges.gauge("overhead_ratio", wall_clock=True).set(traced_ratio)

    gauges = bench_manifest.registry.scope("bench.perf")
    for label, base_s, fast_s, speedup in rows:
        key = label.split(" ")[0].replace("-", "_")
        gauges.gauge(f"{key}.speedup", wall_clock=True).set(speedup)
    bench_manifest.write(
        "BENCH_perf",
        protocol={"name": "all", "protocols": ["hybrid", *CHAIN_PROTOCOLS],
                  "n_sites": 5},
        params={
            **MC_KWARGS,
            "grid_points": len(GRID),
            "workers": 2,
            "vectorized_replicates": VECTOR_KWARGS["replicates"],
            "vectorized_events": VECTOR_KWARGS["events"],
        },
        seed=MC_KWARGS["seed"],
    )

    print()
    print(
        render_table(
            ["path", "baseline s", "optimised s", "speedup"],
            [[label, base, fast, speed] for label, base, fast, speed in rows],
            title="perf scaling smoke (baselines are serial / per-point)",
        )
    )
