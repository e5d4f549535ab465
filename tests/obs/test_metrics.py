"""Unit tests for the metrics registry: instruments, scopes, disabled mode."""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.obs import NULL_REGISTRY, MetricsRegistry, global_registry, use
from repro.obs.metrics import _NULL_COUNTER, _NULL_GAUGE, _NULL_HISTOGRAM


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(4)
        assert registry.counter("a").value == 5

    def test_counter_rejects_negative_increments(self):
        with pytest.raises(ObservabilityError, match="cannot decrease"):
            MetricsRegistry().counter("a").inc(-1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        assert gauge.value is None
        gauge.set(1.5)
        gauge.set(2.5)
        assert gauge.value == 2.5

    def test_histogram_summary_is_exact(self):
        histogram = MetricsRegistry().histogram("h")
        for value in (3.0, 1.0, 2.0):
            histogram.observe(value)
        assert histogram.describe() == {
            "type": "histogram",
            "count": 3,
            "sum": 6.0,
            "min": 1.0,
            "max": 3.0,
            "mean": 2.0,
            "p50": 2.0,
            "p90": 3.0,
            "p99": 3.0,
        }

    def test_histogram_quantiles_are_nearest_rank(self):
        histogram = MetricsRegistry().histogram("h")
        for value in range(1, 101):  # 1..100: pX is exactly X
            histogram.observe(float(value))
        assert histogram.quantile(50) == 50.0
        assert histogram.quantile(90) == 90.0
        assert histogram.quantile(99) == 99.0
        assert histogram.quantile(100) == 100.0
        # Nearest-rank on a tiny sample: rank = ceil(q/100 * N).
        small = MetricsRegistry().histogram("s")
        for value in (10.0, 20.0):
            small.observe(value)
        assert small.quantile(50) == 10.0
        assert small.quantile(51) == 20.0

    def test_histogram_quantile_rejects_bad_q_and_empty_is_none(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(1.0)
        for bad in (0, -1, 101):
            with pytest.raises(ObservabilityError, match="quantile"):
                histogram.quantile(bad)
        assert MetricsRegistry().histogram("e").quantile(50) is None

    def test_histogram_quantile_single_sample(self):
        # Nearest-rank with N = 1: rank = ceil(q/100) = 1 for every valid
        # q, so the lone sample answers all quantiles.
        histogram = MetricsRegistry().histogram("one")
        histogram.observe(42.0)
        for q in (1, 50, 99, 100):
            assert histogram.quantile(q) == 42.0

    def test_histogram_quantile_duplicate_heavy(self):
        # 97 copies of 1.0 plus 2.0, 3.0, 4.0: the duplicate plateau must
        # answer every quantile up to its own rank, and the tail values
        # appear exactly at ranks 98..100 (no off-by-one into the
        # plateau or past the maximum).
        histogram = MetricsRegistry().histogram("dup")
        for _ in range(97):
            histogram.observe(1.0)
        for value in (2.0, 3.0, 4.0):
            histogram.observe(value)
        assert histogram.quantile(1) == 1.0
        assert histogram.quantile(97) == 1.0
        assert histogram.quantile(98) == 2.0
        assert histogram.quantile(99) == 3.0
        assert histogram.quantile(100) == 4.0

    def test_histogram_quantile_matches_ceil_reference(self):
        # The implementation's -(-q * n // 100) must equal the textbook
        # nearest-rank ceil(q * n / 100) for every (q, n) pair in range.
        import math

        for n in (1, 2, 3, 7, 10, 99, 100, 101):
            histogram = MetricsRegistry().histogram(f"ref{n}")
            for value in range(n):
                histogram.observe(float(value))
            ordered = sorted(float(v) for v in range(n))
            for q in range(1, 101):
                rank = math.ceil(q * n / 100)
                assert histogram.quantile(q) == ordered[rank - 1], (q, n)

    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ObservabilityError, match="already registered"):
            registry.gauge("x")
        with pytest.raises(ObservabilityError, match="already registered"):
            registry.histogram("x")


class TestScopes:
    def test_scope_prefixes_names(self):
        registry = MetricsRegistry()
        registry.scope("mc").counter("events").inc(7)
        assert registry.counter("mc.events").value == 7

    def test_nested_scope(self):
        registry = MetricsRegistry()
        registry.scope("a").scope("b").gauge("g").set(1)
        assert registry.names() == ("a.b.g",)


class TestDisabledFastPath:
    def test_disabled_registry_allocates_nothing(self):
        registry = MetricsRegistry(enabled=False)
        for i in range(10):
            registry.counter(f"c{i}").inc()
            registry.gauge(f"g{i}").set(i)
            registry.histogram(f"h{i}").observe(i)
        assert registry.names() == ()
        assert registry.snapshot() == {}
        assert registry.wall_clock_snapshot() == {}

    def test_disabled_instruments_are_shared_singletons(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("a") is _NULL_COUNTER
        assert registry.counter("b") is _NULL_COUNTER
        assert registry.gauge("a") is _NULL_GAUGE
        assert registry.histogram("a") is _NULL_HISTOGRAM
        assert registry.scope("s").counter("a") is _NULL_COUNTER

    def test_null_updates_do_not_leak_state(self):
        NULL_REGISTRY.counter("a").inc(100)
        NULL_REGISTRY.gauge("g").set(9)
        NULL_REGISTRY.histogram("h").observe(1)
        assert _NULL_COUNTER.value == 0
        assert _NULL_GAUGE.value is None
        assert _NULL_HISTOGRAM.count == 0


class TestSnapshots:
    def test_snapshot_is_sorted_and_deterministic(self):
        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a").inc()
        assert list(registry.snapshot()) == ["a", "z"]

    def test_wall_clock_gauges_excluded_from_snapshot(self):
        registry = MetricsRegistry()
        registry.gauge("events_per_sec", wall_clock=True).set(1e6)
        registry.counter("events").inc()
        assert list(registry.snapshot()) == ["events"]
        assert list(registry.wall_clock_snapshot()) == ["events_per_sec"]

    def test_render_aligns_and_handles_empty(self):
        registry = MetricsRegistry()
        assert registry.render() == "(no metrics recorded)"
        registry.counter("short").inc()
        registry.histogram("much.longer.name").observe(2)
        lines = registry.render().splitlines()
        assert len(lines) == 2
        assert "counter" in lines[1] and "short" in lines[1]
        assert "count=1" in lines[0]


class TestGlobalRegistry:
    def test_disabled_by_default(self):
        assert global_registry() is NULL_REGISTRY
        assert not global_registry().enabled

    def test_use_swaps_and_restores(self):
        registry = MetricsRegistry()
        with use(registry) as active:
            assert active is registry
            assert global_registry() is registry
        assert global_registry() is NULL_REGISTRY

    def test_use_restores_on_error(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with use(registry):
                raise RuntimeError("boom")
        assert global_registry() is NULL_REGISTRY

    def test_use_none_is_a_no_op(self):
        with use(None) as active:
            assert active is NULL_REGISTRY

    def test_use_rejects_non_registries(self):
        with pytest.raises(ObservabilityError, match="MetricsRegistry"):
            with use({"not": "a registry"}):  # type: ignore[arg-type]
                pass
