"""Unit tests for the unified metrics plane (registry, merge, exposition)."""

import gc

import pytest

from repro.observability.metrics import (
    LATENCY_BUCKET_BOUNDS,
    Counter,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    to_prometheus,
)


class TestInstruments:
    def test_counter_inc_add_reset(self):
        counter = Counter("pretzel_test_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        counter.add(-2)  # re-routed events (scheduler unreserve) go negative
        assert counter.value == 3
        counter.reset()
        assert counter.value == 0

    def test_histogram_buckets(self):
        histogram = Histogram("pretzel_test_seconds")
        for value in (0.001, 0.001, 0.002, 0.010, 1.5):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(1.514)
        snapshot = histogram.snapshot()
        assert sum(snapshot["counts"]) == 5
        assert len(snapshot["counts"]) == len(LATENCY_BUCKET_BOUNDS) + 1

    def test_histogram_overflow_bucket(self):
        histogram = Histogram("pretzel_test_seconds")
        histogram.observe(LATENCY_BUCKET_BOUNDS[-1] * 10)  # past every bound
        assert histogram.snapshot()["counts"][-1] == 1


class TestRegistry:
    def test_snapshot_sums_instruments_sharing_a_name(self):
        registry = MetricsRegistry()
        first = registry.counter("pretzel_router_dispatched_total")
        second = registry.counter("pretzel_router_dispatched_total")
        first.inc(3)
        second.inc(4)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["pretzel_router_dispatched_total"] == 7
        # Per-instance semantics are untouched by aggregation.
        assert first.value == 3 and second.value == 4

    def test_dead_instruments_stop_contributing(self):
        registry = MetricsRegistry()
        keep = registry.counter("pretzel_test_total")
        drop = registry.counter("pretzel_test_total")
        keep.inc(1)
        drop.inc(10)
        del drop
        gc.collect()
        assert registry.snapshot()["counters"]["pretzel_test_total"] == 1

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("pretzel_test_total")
        with pytest.raises(ValueError):
            registry.histogram("pretzel_test_total")

    def test_reset_zeroes_live_instruments(self):
        registry = MetricsRegistry()
        counter = registry.counter("pretzel_test_total")
        histogram = registry.histogram("pretzel_test_seconds")
        counter.inc(5)
        histogram.observe(0.1)
        registry.reset()
        assert counter.value == 0
        assert histogram.count == 0

    def test_histogram_snapshot_merges_buckets(self):
        registry = MetricsRegistry()
        first = registry.histogram("pretzel_test_seconds")
        second = registry.histogram("pretzel_test_seconds")
        first.observe(0.001)
        second.observe(0.001)
        second.observe(2.0)
        merged = registry.snapshot()["histograms"]["pretzel_test_seconds"]
        assert merged["count"] == 3
        assert merged["sum"] == pytest.approx(2.002)
        assert sum(merged["counts"]) == 3


class TestMergeAndExposition:
    def test_merge_snapshots_is_exact(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        # The registry holds instruments weakly: keep them referenced, as a
        # component owning its counter would.
        ca = a.counter("pretzel_x_total")
        cb = b.counter("pretzel_x_total")
        ca.inc(2)
        cb.inc(5)
        ha = a.histogram("pretzel_lat_seconds")
        hb = b.histogram("pretzel_lat_seconds")
        ha.observe(0.004)
        hb.observe(0.004)
        hb.observe(0.5)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert merged["counters"]["pretzel_x_total"] == 7
        histogram = merged["histograms"]["pretzel_lat_seconds"]
        assert histogram["count"] == 3
        assert histogram["sum"] == pytest.approx(0.508)
        # Fixed buckets: merging is element-wise addition, no re-binning.
        direct = [
            x + y
            for x, y in zip(
                a.snapshot()["histograms"]["pretzel_lat_seconds"]["counts"],
                b.snapshot()["histograms"]["pretzel_lat_seconds"]["counts"],
            )
        ]
        assert histogram["counts"] == direct

    def test_merge_does_not_mutate_base(self):
        a = MetricsRegistry()
        counter = a.counter("pretzel_x_total")
        counter.inc(1)
        base = a.snapshot()
        merge_snapshots(base, {"counters": {"pretzel_x_total": 100}})
        assert base["counters"]["pretzel_x_total"] == 1

    def test_merge_tolerates_none_sides(self):
        merged = merge_snapshots(None, {"counters": {"pretzel_x_total": 2}})
        assert merged["counters"]["pretzel_x_total"] == 2
        assert merge_snapshots(None, None) == {"counters": {}, "histograms": {}}

    def test_prometheus_text_exposition(self):
        registry = MetricsRegistry()
        counter = registry.counter("pretzel_b_total")
        histogram = registry.histogram("pretzel_lat_seconds")
        counter.inc(2)
        histogram.observe(0.004)
        text = to_prometheus(registry.snapshot())
        assert "# TYPE pretzel_b_total counter" in text
        assert "pretzel_b_total 2" in text
        assert "# TYPE pretzel_lat_seconds histogram" in text
        assert 'pretzel_lat_seconds_bucket{le="+Inf"} 1' in text
        assert "pretzel_lat_seconds_count 1" in text
        assert text.endswith("\n")
        # Cumulative buckets are monotonically non-decreasing.
        cumulative = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("pretzel_lat_seconds_bucket")
        ]
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == 1

    def test_prometheus_empty_snapshot(self):
        assert to_prometheus({"counters": {}, "histograms": {}}) == ""
