"""Normalized engine dumps: the reproducibility artifact of one run.

The simulation clock is virtual and every RNG is seeded, so a scenario
run is a pure function of the code: the engine trace, the statistics
dict, the serviced-request set and (with observability on) the metric
snapshot are all bit-reproducible. :func:`dump_engine` turns a
finished engine into a normalized JSON-able dump — the primitive
behind the golden-trace harness (``tests/obs/golden.py``) and the
parallel fleet's ``dump`` worker command (a worker process dumps its
own shard in-process and ships the JSON-able result back over its
pipe).

Normalization: auto-assigned request ids (``req<N>`` from the global
counter) depend on how many requests earlier scenarios created in the
same process — and, in a parallel fleet, on which worker process the
shard ran in — so dumps renumber them ``R1, R2, ...`` in order of
first appearance. Metrics whose name contains ``wallclock`` are
dropped: they measure host time, not virtual time, and are not
reproducible.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List

#: Auto-assigned request ids (actions/request.py global counter).
_AUTO_REQUEST_ID = re.compile(r"^req\d+$")

#: Metric-name fragment marking host-clock measurements to exclude.
_WALLCLOCK = "wallclock"


# ----------------------------------------------------------------------
# Dumping
# ----------------------------------------------------------------------
def _json_safe(value: Any) -> Any:
    """A deterministic JSON-able rendering of one trace field value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return str(value)


class _RequestIdNormalizer:
    """Renumbers auto-assigned request ids in first-appearance order."""

    def __init__(self) -> None:
        self._mapping: Dict[str, str] = {}

    def __call__(self, value: Any) -> Any:
        if isinstance(value, str) and _AUTO_REQUEST_ID.match(value):
            if value not in self._mapping:
                self._mapping[value] = f"R{len(self._mapping) + 1}"
            return self._mapping[value]
        return value


def dump_engine(engine: Any) -> Dict[str, Any]:
    """A normalized, JSON-able dump of one finished scenario run.

    Contains the full trace log, the engine statistics dict, the sorted
    serviced-request id list and, when the engine has observability
    enabled, the deterministic metric snapshot (wall-clock metrics
    excluded).
    """
    normalize = _RequestIdNormalizer()
    trace: List[Dict[str, Any]] = []
    for record in engine.tracer:
        trace.append({
            "at": record.at,
            "kind": record.kind,
            "fields": {
                key: normalize(_json_safe(value))
                for key, value in sorted(record.fields.items())
            },
        })
    serviced = sorted(
        normalize(request.request_id)
        for request in engine.completed_requests
        if request.state.value == "serviced"
    )
    dump: Dict[str, Any] = {
        "trace": trace,
        "statistics": _json_safe(engine.statistics()),
        "serviced": serviced,
    }
    obs = getattr(engine, "obs", None)
    if obs is not None and getattr(obs, "enabled", False):
        snapshot = obs.registry.snapshot()
        dump["metrics"] = {
            section: {
                key: value for key, value in sorted(entries.items())
                if _WALLCLOCK not in key
            }
            for section, entries in snapshot.items()
        }
    return dump
