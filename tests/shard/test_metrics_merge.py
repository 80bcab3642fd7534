"""``MetricsRegistry.merge``/``relabeled`` under shard labels.

The fleet metric path is: each shard writes an unlabeled registry →
the coordinator copies it with ``shard=<i>`` stamped on every series →
copies merge into one fleet registry. These tests pin the algebra that
makes the result trustworthy: merged values are the sum (counters,
histograms) / max (gauges) of the per-shard values, merging is
associative and commutative across three-plus shards, and the CLI
renders the shard labels.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.errors import AortaError
from repro.obs.metrics import Histogram, MetricsRegistry
from tests.shard.scenarios import region_fleet_scenario


def _registry(counter_values, gauge_values, samples):
    registry = MetricsRegistry()
    for value in counter_values:
        registry.counter("work.done", kind="a").inc(value)
    for value in gauge_values:
        registry.gauge("queue.depth", kind="a").set(value)
    for value in samples:
        registry.family(Histogram, "latency.seconds")[()].observe(value)
    return registry


amounts = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    min_size=0, max_size=5)


# ----------------------------------------------------------------------
# The merge algebra
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(a=amounts, b=amounts, c=amounts)
def test_merge_is_associative_and_commutative_across_shards(a, b, c):
    def build(label_order):
        merged = MetricsRegistry()
        shards = {"0": a, "1": b, "2": c}
        for label in label_order:
            merged.merge(
                _registry(shards[label], shards[label],
                          shards[label]).relabeled(shard=label))
        return merged.snapshot()

    baseline = build(["0", "1", "2"])
    assert build(["2", "0", "1"]) == baseline
    assert build(["1", "2", "0"]) == baseline


@settings(max_examples=50, deadline=None)
@given(a=amounts, b=amounts)
def test_merged_equals_sum_of_counters_and_max_of_gauges(a, b):
    merged = MetricsRegistry()
    merged.merge(_registry(a, a, []))
    merged.merge(_registry(b, b, []))
    snapshot = merged.snapshot()
    if a or b:
        assert snapshot["counters"]["work.done{kind=a}"] \
            == pytest.approx(sum(a) + sum(b))
        expected_gauge = max([values[-1] for values in (a, b) if values],
                             default=0.0)
        assert snapshot["gauges"]["queue.depth{kind=a}"] \
            == pytest.approx(expected_gauge)


def test_merged_histograms_add_counts_and_combine_bounds():
    merged = MetricsRegistry()
    merged.merge(_registry([], [], [0.002, 0.2]))
    merged.merge(_registry([], [], [7.0]))
    histogram = merged.snapshot()["histograms"]["latency.seconds"]
    assert histogram["count"] == 3
    assert histogram["sum"] == pytest.approx(7.202)
    assert histogram["min"] == 0.002
    assert histogram["max"] == 7.0


# ----------------------------------------------------------------------
# relabeled()
# ----------------------------------------------------------------------
def test_relabeled_stamps_every_series_and_preserves_values():
    registry = _registry([3.0], [5.0], [0.1])
    labeled = registry.relabeled(shard=2)
    snapshot = labeled.snapshot()
    assert snapshot["counters"] == {"work.done{kind=a,shard=2}": 3.0}
    assert snapshot["gauges"] == {"queue.depth{kind=a,shard=2}": 5.0}
    assert list(snapshot["histograms"]) == ["latency.seconds{shard=2}"]
    # The copy is deep: mutating it leaves the source untouched.
    labeled.counter("work.done", kind="a", shard=2).inc(10.0)
    assert registry.snapshot()["counters"]["work.done{kind=a}"] == 3.0


def test_relabeled_refuses_label_collisions():
    registry = MetricsRegistry()
    registry.counter("work.done", shard="already").inc()
    with pytest.raises(AortaError, match="already carries"):
        registry.relabeled(shard=0)


def test_relabeling_keeps_per_shard_series_distinct_after_merge():
    merged = MetricsRegistry()
    for index in range(3):
        merged.merge(_registry([float(index + 1)], [], []).relabeled(
            shard=index))
    counters = merged.snapshot()["counters"]
    assert counters == {
        "work.done{kind=a,shard=0}": 1.0,
        "work.done{kind=a,shard=1}": 2.0,
        "work.done{kind=a,shard=2}": 3.0,
    }


# ----------------------------------------------------------------------
# End to end: the fleet metric surface and the CLI
# ----------------------------------------------------------------------
def test_fleet_metrics_equal_merge_of_shard_snapshots():
    fleet = region_fleet_scenario(3, True)
    merged = MetricsRegistry()
    for shard in fleet.shards:
        merged.merge(shard.obs.registry)
    assert fleet.metrics() == merged.snapshot()
    labeled = fleet.shard_labeled_metrics()
    for section in ("counters", "gauges", "histograms"):
        for key in labeled[section]:
            assert "shard=" in key


def test_cli_metrics_renders_shard_labeled_output(capsys):
    assert main(["metrics", "--shards", "2"]) == 0
    out = capsys.readouterr().out
    assert "shard=0" in out
    assert "shard=1" in out
    assert "engine.runs" in out


def test_cli_metrics_shards_json_output(capsys):
    import json
    assert main(["metrics", "--shards", "2", "--json"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert any("shard=1" in key for key in snapshot["counters"])
