"""Deterministic metrics primitives: counters, gauges, histograms.

Metrics are keyed by name plus a label tuple (``("device", "cam1")``
pairs, sorted), so one registry holds e.g. a per-device-type family of
round-trip histograms. Everything is built for determinism: snapshots
render in stable sorted order, every histogram shares one set of
bucket bounds, and merge is pointwise arithmetic — associative and
commutative for counters and histograms — so sharded registries can be
combined in any order and still agree byte-for-byte.

A call site resolves its series once (validating the name, sorting
the labels) and holds it, or holds a :class:`Family` that resolves a
label value on its first write. A series appears in snapshots, merges
and ``len()`` from its first write on.

Values that measure the host clock (not virtual time) must carry
``wallclock`` in the metric name: the golden-trace harness excludes
them from reproducibility comparisons by that convention.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Tuple, Type,
    TypeVar, Union,
)

from repro.errors import AortaError

#: Histogram bucket upper bounds, in (virtual) seconds: every histogram
#: has these. An implicit +inf bucket catches everything above the last
#: bound.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0)

_NAME_PATTERN = re.compile(r"^[a-z][a-z0-9_.]*$")

#: A metric key: ``(name, label, value, label, value, ...)`` with the
#: labels sorted. Flat, because an engine holds one per query and per
#: device; it sorts as the nested ``(name, ((label, value), ...))``.
MetricKey = Tuple[str, ...]


def metric_key(name: str, labels: Dict[str, Any]) -> MetricKey:
    """The canonical registry key of one (name, labels) series."""
    if not _NAME_PATTERN.match(name):
        raise AortaError(
            f"invalid metric name {name!r}: use lowercase dotted names")
    pairs = sorted((str(k), str(v)) for k, v in labels.items())
    return (name, *(part for pair in pairs for part in pair))


def _labels(key: MetricKey) -> Dict[str, str]:
    return dict(zip(key[1::2], key[2::2]))


def render_key(key: MetricKey) -> str:
    """``name{a=1,b=2}`` rendering used by snapshots and exporters."""
    if len(key) == 1:
        return key[0]
    inner = ",".join(f"{label}={value}"
                     for label, value in _labels(key).items())
    return f"{key[0]}{{{inner}}}"


class Counter:
    """A monotonically increasing total: an ``int`` while only whole
    amounts are added (small ones cost no allocation), rendered as a
    float."""

    __slots__ = ("value", "written")

    def __init__(self) -> None:
        self.value: float = 0
        self.written = False

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise AortaError("counters only go up; use a gauge")
        self.value += amount
        self.written = True


class Gauge:
    """A point-in-time level (queue depth, open breakers, ...)."""

    __slots__ = ("value", "written")

    def __init__(self) -> None:
        self.value = 0.0
        self.written = False

    def set(self, value: float) -> None:
        self.value = float(value)
        self.written = True

    def add(self, amount: float) -> None:
        self.value += amount
        self.written = True


class Histogram:
    """A fixed-bucket distribution of observed values.

    ``counts[i]`` counts observations ``<= DEFAULT_BUCKETS[i]``; the
    final slot is the implicit +inf bucket. Every histogram has the same
    bounds, so any two merge exactly.
    """

    __slots__ = ("counts", "total", "count", "min", "max")

    def __init__(self) -> None:
        self.counts: List[int] = [0] * (len(DEFAULT_BUCKETS) + 1)
        self.total = 0.0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    @property
    def written(self) -> bool:
        return self.count > 0

    def observe(self, value: float) -> None:
        value = float(value)
        # The first bound >= value; past the last bound, the +inf slot.
        self.counts[bisect_left(DEFAULT_BUCKETS, value)] += 1
        self.total += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram."""
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.total += other.total
        self.count += other.count
        for bound_name in ("min", "max"):
            mine = getattr(self, bound_name)
            theirs = getattr(other, bound_name)
            if theirs is None:
                continue
            if mine is None:
                setattr(self, bound_name, theirs)
            else:
                pick = min if bound_name == "min" else max
                setattr(self, bound_name, pick(mine, theirs))


Metric = Union[Counter, Gauge, Histogram]
_M = TypeVar("_M", Counter, Gauge, Histogram)


class Family(dict):
    """The series of one metric keyed by label value: one dict lookup
    per write once a series exists. Families live on the call sites,
    never in a registry, so a registry stays picklable."""

    __slots__ = ("_resolve",)

    def __init__(self, resolve: Callable[[Any], Any]) -> None:
        super().__init__()
        self._resolve = resolve

    def __missing__(self, key: Any) -> Any:
        series = self[key] = self._resolve(key)
        return series


class MetricsRegistry:
    """All metric series of one engine (or one shard of a fleet).

    Series are created on first resolution and typed forever: asking
    for ``dispatch.batches`` as a counter and later as a gauge is an
    error, not a silent overwrite.
    """

    def __init__(self) -> None:
        self._metrics: Dict[MetricKey, Metric] = {}

    def _series(self, kind: Type[_M], name: str,
                labels: Dict[str, Any]) -> _M:
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            created = kind()
            self._metrics[key] = created
            return created
        if not isinstance(metric, kind):
            raise AortaError(
                f"metric {render_key(key)!r} is a "
                f"{type(metric).__name__}, not a {kind.__name__}")
        return metric

    # ``name`` is positional-only so a label may be called
    # ``name`` (e.g. ``span.seconds{name=...}``) without colliding.
    def counter(self, name: str, /, **labels: Any) -> Counter:
        return self._series(Counter, name, labels)

    def gauge(self, name: str, /, **labels: Any) -> Gauge:
        return self._series(Gauge, name, labels)

    def family(self, kind: Type[_M], name: str, *labels: str) -> Family:
        """The ``kind`` series of ``name`` keyed by the values of
        ``labels`` (a tuple key when there are several; ``[()]`` is the
        one series of a metric without labels)."""
        def resolve(key: Any) -> _M:
            values = key if len(labels) > 1 else (key,)
            return self._series(kind, name, dict(zip(labels, values)))
        return Family(resolve)

    def __len__(self) -> int:
        return sum(1 for metric in self._metrics.values() if metric.written)

    def _written(self) -> Iterator[Tuple[MetricKey, Metric]]:
        return ((key, metric) for key, metric in self._metrics.items()
                if metric.written)

    # ------------------------------------------------------------------
    # Reading counts
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, float]:
        """Every counter name -> its value summed over all labels."""
        totals: Dict[str, float] = {}
        for key, metric in self._written():
            if isinstance(metric, Counter):
                totals[key[0]] = totals.get(key[0], 0.0) + metric.value
        return totals

    def labeled(self, name: str) -> List[Tuple[Dict[str, str], Any]]:
        """``(labels, series)`` of every written series of ``name``, in
        the order the series were first resolved."""
        return [(_labels(key), metric) for key, metric in self._written()
                if key[0] == name]

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A deterministic, JSON-able copy of every series.

        Stable under repetition: two snapshots with no activity in
        between are equal, and key order is sorted — the golden-trace
        harness and the exporters rely on both.
        """
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        for key, metric in sorted(self._written(),
                                  key=lambda item: item[0]):
            rendered = render_key(key)
            if isinstance(metric, Counter):
                counters[rendered] = float(metric.value)
            elif isinstance(metric, Gauge):
                gauges[rendered] = metric.value
            else:
                histograms[rendered] = {
                    "buckets": list(DEFAULT_BUCKETS),
                    "counts": list(metric.counts),
                    "sum": metric.total,
                    "count": metric.count,
                    "min": metric.min,
                    "max": metric.max,
                }
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def relabeled(self, **labels: Any) -> "MetricsRegistry":
        """A deep copy of this registry with extra labels on every series.

        Built for sharded fleets: each shard's registry stays unlabeled
        (so a 1-shard fleet is byte-identical to a plain engine), and
        the coordinator stamps ``shard=<i>`` onto copies at render time
        before merging them into one fleet view. A series that already
        carries one of the new labels is an error — silently
        overwriting would alias two different series.
        """
        copy = MetricsRegistry()
        for key, metric in self._written():
            existing = _labels(key)
            for label in labels:
                if label in existing:
                    raise AortaError(
                        f"metric {render_key(key)!r} already carries "
                        f"label {label!r}; cannot relabel")
            copy._fold(key[0], {**existing, **labels}, metric)
        return copy

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one.

        Counters and histogram contents add; gauges combine by
        pointwise maximum (the only order-independent choice for a
        level) — so merging shard registries is associative and
        commutative, and ``a.merge(b)`` equals ``b.merge(a)`` snapshot
        for snapshot.
        """
        for key, metric in other._written():
            self._fold(key[0], _labels(key), metric)

    def _fold(self, name: str, labels: Dict[str, Any],
              metric: Metric) -> None:
        """Add ``metric`` into this registry's ``name{labels}`` series; a
        gauge keeps the higher level once both sides have one."""
        if isinstance(metric, Counter):
            self._series(Counter, name, labels).inc(metric.value)
        elif isinstance(metric, Gauge):
            gauge = self._series(Gauge, name, labels)
            gauge.set(max(gauge.value, metric.value) if gauge.written
                      else metric.value)
        else:
            self._series(Histogram, name, labels).merge(metric)
