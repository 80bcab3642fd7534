"""Tests of the exporters (repro.obs.export)."""

import json

from repro.obs import (
    Histogram,
    MetricsRegistry,
    Observability,
    metrics_to_json,
    metrics_to_text,
    span_records,
    span_tree_text,
)
from repro.sim import Environment


def small_registry():
    registry = MetricsRegistry()
    registry.counter("dispatch.batches", action="photo").inc(2)
    registry.gauge("queue.depth").set(3)
    registry.family(Histogram, "probe.rtt_seconds")[()].observe(0.02)
    return registry


def traced_obs():
    env = Environment()
    obs = Observability(env, enabled=True)
    with obs.span("run"):
        with obs.span("batch", action="photo"):
            env.run(until=1.5)
        env.run(until=4.0)
    return obs


class TestMetricsExport:
    def test_json_is_stable_and_parseable(self):
        registry = small_registry()
        first = metrics_to_json(registry)
        assert first == metrics_to_json(registry)
        parsed = json.loads(first)
        assert parsed["counters"]["dispatch.batches{action=photo}"] == 2.0

    def test_json_accepts_snapshot_dict_too(self):
        registry = small_registry()
        assert metrics_to_json(registry.snapshot()) \
            == metrics_to_json(registry)

    def test_text_sections_and_values(self):
        text = metrics_to_text(small_registry())
        assert "counters:" in text
        assert "dispatch.batches{action=photo}" in text
        assert "queue.depth" in text
        assert "count=1" in text  # the histogram line

    def test_text_of_empty_registry_is_empty(self):
        assert metrics_to_text(MetricsRegistry()) == ""


class TestSpanExport:
    def test_span_records_fields(self):
        spans = span_records(traced_obs().tracer)
        by_name = {span["name"]: span for span in spans}
        batch = by_name["batch"]
        assert batch["parent"] == by_name["run"]["id"]
        assert batch["labels"] == {"action": "photo"}
        assert batch["start"] == 0.0
        assert batch["end"] == 1.5
        assert batch["duration"] == 1.5
        assert by_name["run"]["end"] == 4.0

    def test_tree_indents_children(self):
        tree = span_tree_text(traced_obs().tracer)
        lines = tree.splitlines()
        assert lines[0].lstrip().startswith("[") and "run" in lines[0]
        assert lines[1].startswith("  [") and "batch" in lines[1]
        assert "action=photo" in lines[1]

    def test_spans_json_round_trips(self):
        """What ``metrics --json --spans`` prints: the records survive."""
        spans = span_records(traced_obs().tracer)
        parsed = json.loads(metrics_to_json({"metrics": {}, "spans": spans}))
        assert parsed["spans"] == spans

    def test_empty_tracer_exports_empty(self):
        tracer = Observability(Environment()).tracer
        assert span_records(tracer) == []
        assert span_tree_text(tracer) == ""
