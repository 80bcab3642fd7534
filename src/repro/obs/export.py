"""Exporters: stable JSON and human-readable text for metrics and spans.

JSON output is fully stable — sorted keys, sorted series — so two dumps
of the same run diff clean, and the golden-trace harness can compare
them byte for byte. The text renderings are for terminals: the metrics
report groups series by type, the span view renders the parent links as
an indented virtual-time tree.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Union

from repro.obs.metrics import MetricsRegistry


def _snapshot_of(source: Union[MetricsRegistry, Dict[str, Any]],
                 ) -> Dict[str, Any]:
    if isinstance(source, MetricsRegistry):
        return source.snapshot()
    return source


def metrics_to_json(source: Union[MetricsRegistry, Dict[str, Any]]) -> str:
    """The snapshot as deterministic, diff-friendly JSON."""
    return json.dumps(_snapshot_of(source), indent=1, sort_keys=True) + "\n"


def metrics_to_text(source: Union[MetricsRegistry, Dict[str, Any]]) -> str:
    """The snapshot as an aligned human-readable report."""
    snapshot = _snapshot_of(source)
    lines: List[str] = []
    for section in ("counters", "gauges"):
        entries = snapshot.get(section, {})
        if not entries:
            continue
        lines.append(f"{section}:")
        width = max(len(key) for key in entries)
        for key, value in entries.items():
            rendered = (f"{value:g}" if isinstance(value, float)
                        else str(value))
            lines.append(f"  {key.ljust(width)}  {rendered}")
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        for key, data in histograms.items():
            mean = data["sum"] / data["count"] if data["count"] else 0.0
            lines.append(
                f"  {key}  count={data['count']} sum={data['sum']:g} "
                f"min={data['min']:g} max={data['max']:g} mean={mean:g}"
                if data["count"] else f"  {key}  count=0")
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Spans (from trace records)
# ----------------------------------------------------------------------
def span_records(tracer) -> List[Dict[str, Any]]:
    """Every closed span as a plain dict, in close order.

    Each entry carries ``id``, ``parent`` (0 = root), ``name``,
    ``start``, ``end``, ``duration`` and the span's labels.
    """
    spans = []
    for record in tracer.of_kind("span"):
        fields = dict(record.fields)
        span = {
            "id": fields.pop("span"),
            "parent": fields.pop("parent"),
            "name": fields.pop("name"),
            "start": fields.pop("start"),
            "end": record.at,
        }
        span["duration"] = span["end"] - span["start"]
        span["labels"] = fields
        spans.append(span)
    return spans


def span_tree_text(tracer) -> str:
    """The span forest as an indented, start-time-ordered text tree."""
    spans = span_records(tracer)
    children: Dict[int, List[Dict[str, Any]]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s["start"], s["id"]))

    lines: List[str] = []

    def render(span: Dict[str, Any], depth: int) -> None:
        labels = "".join(f" {k}={v}"
                         for k, v in sorted(span["labels"].items()))
        lines.append(
            f"{'  ' * depth}[{span['start']:10.3f}s +{span['duration']:.3f}s]"
            f" {span['name']}{labels}")
        for child in children.get(span["id"], ()):
            render(child, depth + 1)

    for root in children.get(0, ()):
        render(root, 0)
    return "\n".join(lines) + ("\n" if lines else "")
