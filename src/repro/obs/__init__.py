"""Observability: deterministic metrics, spans and exporters.

One :class:`Observability` instance per engine carries its
:class:`MetricsRegistry` — the one home of every count the engine keeps,
always recorded — and, behind ``EngineConfig.observability``, timing
series and a virtual-time span recorder built on the engine tracer;
exporters render both as stable JSON or terminal text.
Everything is deterministic given the seeds — see
``tests/obs/golden.py`` for the golden-trace harness that exploits it.
"""

from repro.obs.dump import dump_engine
from repro.obs.export import (
    metrics_to_json,
    metrics_to_text,
    span_records,
    span_tree_text,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_key,
    render_key,
)
from repro.obs.spans import Observability, SpanContext

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "SpanContext",
    "dump_engine",
    "metric_key",
    "metrics_to_json",
    "metrics_to_text",
    "render_key",
    "span_records",
    "span_tree_text",
]
