"""Unit tests of the metrics primitives (repro.obs.metrics)."""

import pytest

from repro.errors import AortaError
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_key,
    render_key,
)


class TestKeys:
    def test_labels_sort_into_one_canonical_key(self):
        assert metric_key("a.b", {"x": 1, "y": "z"}) \
            == metric_key("a.b", {"y": "z", "x": 1})

    def test_invalid_names_rejected(self):
        for bad in ("", "UPPER", "1leading", "spa ce", "dash-ed"):
            with pytest.raises(AortaError, match="invalid metric name"):
                metric_key(bad, {})

    def test_render_key(self):
        assert render_key(metric_key("a.b", {})) == "a.b"
        assert render_key(metric_key("a.b", {"y": 2, "x": 1})) \
            == "a.b{x=1,y=2}"


class TestCounterAndGauge:
    def test_counter_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(AortaError, match="only go up"):
            Counter().inc(-1.0)

    def test_gauge_set_and_add(self):
        gauge = Gauge()
        gauge.set(7.0)
        gauge.add(-2.0)
        assert gauge.value == 5.0


class TestHistogram:
    def test_observations_land_in_bucket_order(self):
        hist = Histogram()
        for value in (0.5, 5.0, 500.0):
            hist.observe(value)
        bucket = DEFAULT_BUCKETS.index
        # <=0.5, <=5, +inf
        assert [index for index, count in enumerate(hist.counts)
                for _ in range(count)] == [
            bucket(0.5), bucket(5.0), len(DEFAULT_BUCKETS)]
        assert hist.count == 3
        assert hist.total == 505.5
        assert (hist.min, hist.max) == (0.5, 500.0)

    def test_boundary_value_goes_to_lower_bucket(self):
        hist = Histogram()
        hist.observe(1.0)
        assert hist.counts[DEFAULT_BUCKETS.index(1.0)] == 1
        assert sum(hist.counts) == 1

    def test_buckets_must_strictly_increase(self):
        # Bucketing bisects the bounds.
        assert DEFAULT_BUCKETS
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))

    def test_default_buckets(self):
        registry = MetricsRegistry()
        registry.family(Histogram, "a.b")[()].observe(1.0)
        snapshot = registry.snapshot()["histograms"]["a.b"]
        assert snapshot["buckets"] == list(DEFAULT_BUCKETS)
        assert len(snapshot["counts"]) == len(DEFAULT_BUCKETS) + 1


class TestRegistry:
    def test_same_key_same_series(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b", x=1) is registry.counter("a.b", x=1)
        assert registry.counter("a.b", x=1) is not registry.counter("a.b",
                                                                    x=2)

    def test_type_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("a.b")
        with pytest.raises(AortaError, match="Counter, not a Gauge"):
            registry.gauge("a.b")

    def test_name_label_does_not_collide_with_parameter(self):
        registry = MetricsRegistry()
        registry.counter("a.b", name="x").inc()
        assert registry.snapshot()["counters"] == {"a.b{name=x}": 1.0}

    def test_snapshot_sorted_and_sectioned(self):
        registry = MetricsRegistry()
        registry.counter("z.count").inc()
        registry.counter("a.count", dev="d2").inc(2)
        registry.counter("a.count", dev="d1").inc(3)
        registry.gauge("q.depth").set(4)
        registry.family(Histogram, "h.seconds")[()].observe(0.25)
        snap = registry.snapshot()
        assert list(snap) == ["counters", "gauges", "histograms"]
        assert list(snap["counters"]) == [
            "a.count{dev=d1}", "a.count{dev=d2}", "z.count"]
        assert snap["gauges"] == {"q.depth": 4.0}
        assert snap["histograms"]["h.seconds"]["count"] == 1

    def test_merge_counters_add_gauges_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        a.gauge("g").set(5)
        b.gauge("g").set(4)
        b.family(Histogram, "h")[()].observe(1.0)
        a.merge(b)
        snap = a.snapshot()
        assert snap["counters"]["c"] == 5.0
        assert snap["gauges"]["g"] == 5.0
        assert snap["histograms"]["h"]["count"] == 1
