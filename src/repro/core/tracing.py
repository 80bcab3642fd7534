"""Structured engine tracing.

A lightweight, always-on event log of what the engine did and when (in
virtual time): events detected, requests emitted, batches dispatched,
actions serviced or failed, probes missed. Tests and operators read it
instead of sprinkling print statements through the engine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List

#: Known trace kinds, for documentation and filtering.
TRACE_KINDS = (
    "event_detected",
    "request_emitted",
    "batch_dispatched",
    "request_serviced",
    "request_failed",
    "probe_failed",
    "query_registered",
    "query_dropped",
    # Fault-tolerance layer: retries, failover re-dispatch, quarantine.
    "request_retry",
    "request_failed_over",
    "device_quarantined",
    "device_probation",
    "device_readmitted",
    # Observability layer: one record per closed virtual-time span.
    "span",
    # Overload-control plane: admission refusals, shed work and the
    # hysteresis edges of pressure shedding.
    "request_rejected",
    "request_shed",
    "shedding_started",
    "shedding_stopped",
)

#: Records a tracer keeps; past it, the oldest is evicted.
MAX_RECORDS = 10_000

#: Records :meth:`EngineTracer.tail` renders.
TAIL_RECORDS = 20


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One engine occurrence at a point in virtual time."""

    at: float
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Any:
        return self.fields[name]

    def __str__(self) -> str:
        details = " ".join(f"{k}={v}" for k, v in sorted(self.fields.items()))
        return f"[{self.at:10.3f}s] {self.kind:18s} {details}"


class EngineTracer:
    """Collects trace records, bounded to the newest :data:`MAX_RECORDS`.

    Bounded retention rides on ``deque(maxlen=...)``, so recording past
    the cap evicts the oldest record in O(1) instead of shifting the
    whole buffer.
    """

    def __init__(self) -> None:
        self._records: Deque[TraceRecord] = deque(maxlen=MAX_RECORDS)

    def record(self, at: float, kind: str, **fields: Any) -> TraceRecord:
        """Append one record (oldest evicted past :data:`MAX_RECORDS`)."""
        entry = TraceRecord(at=at, kind=kind, fields=fields)
        self._records.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(list(self._records))

    def of_kind(self, kind: str) -> List[TraceRecord]:
        """All records of one kind, oldest first."""
        return [r for r in self._records if r.kind == kind]

    def clear(self) -> None:
        """Drop all records."""
        self._records.clear()

    def tail(self) -> str:
        """The newest :data:`TAIL_RECORDS` records, one per line."""
        entries = list(self._records)[-TAIL_RECORDS:]
        return "\n".join(str(r) for r in entries)
