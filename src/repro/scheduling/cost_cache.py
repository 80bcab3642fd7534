"""A shared memoizing cost oracle for the scheduling stack.

Every scheduler estimates the same ``(request, device, status)`` triple
many times: LERFA probes each candidate from the same initial status,
SRFAE re-keys pairs after every assignment, SA's annealing loop
re-walks queue suffixes millions of times, and the dispatcher
re-schedules recurring batches every poll cycle. The inner cost model
(profile interpolation + quantity resolution through
:class:`repro.cost.model.CostModel`) is an order of magnitude more
expensive than a dict lookup, so memoizing the oracle is the difference
between a toy optimizer and one that holds up at the E10 scale
(400 requests x 100 devices) — the same reuse trick embedded-query
optimizers lean on (see PAPERS.md).

Fidelity contract: for a *deterministic* inner model the cache is
observationally transparent — every scheduler produces byte-identical
schedules with the cache on and off (enforced by the property tests in
``tests/scheduling/test_cost_cache.py``). Non-deterministic models
(``estimate_noise > 0``) are refused: memoizing a stochastic oracle
would freeze its first draw and silently change the experiment.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Mapping, Tuple

from repro.errors import SchedulingError
from repro.scheduling.problem import SchedRequest, SchedulingCostModel


def freeze_status(status: Any) -> Hashable:
    """A hashable, value-based key for a device status.

    Statuses arrive either as hashable objects (e.g. the camera
    simulator's frozen ``HeadPosition``) or as plain dicts (the
    dispatcher's probed ``{"pan": ..., "tilt": ...}`` snapshots); dicts,
    lists and sets are recursively frozen. Statuses must be treated as
    immutable once handed to the oracle — the key captures their value
    at call time.
    """
    if isinstance(status, Mapping):
        try:
            # Fast path: flat dicts of hashable scalars (the probed
            # physical-status shape) freeze without recursion.
            frozen = tuple(sorted(status.items()))
            hash(frozen)
            return frozen
        except TypeError:
            return tuple(sorted((key, freeze_status(value))
                                for key, value in status.items()))
    if isinstance(status, (list, tuple)):
        return tuple(freeze_status(value) for value in status)
    if isinstance(status, (set, frozenset)):
        return frozenset(freeze_status(value) for value in status)
    try:
        hash(status)
    except TypeError:
        raise SchedulingError(
            f"cannot build a cache key from status of type "
            f"{type(status).__name__}"
        ) from None
    return status


class CachingCostModel(SchedulingCostModel):
    """Memoizing wrapper around another :class:`SchedulingCostModel`.

    Cache keys are ``(request_id, device_id, frozen_status)``; cached
    entries additionally pin the request's ``payload`` by identity, so
    reusing one cache across problems whose request ids map to
    different payload objects degrades to misses instead of returning
    wrong costs. ``estimate`` and ``actual`` are cached in separate
    namespaces (list scheduling consumes ``actual``).

    The wrapper is intended to be short-lived by default (one
    ``Scheduler.schedule`` call builds a fresh one) but may be shared
    across repeated schedules of a recurring batch — the steady-state
    dispatch scenario ``benchmarks/bench_perf_regression.py`` measures.
    """

    deterministic = True

    def __init__(self, inner: SchedulingCostModel) -> None:
        if isinstance(inner, CachingCostModel):
            raise SchedulingError("refusing to cache a cache")
        if not getattr(inner, "deterministic", True):
            raise SchedulingError(
                "refusing to memoize a non-deterministic cost model: "
                "caching would freeze its first draw"
            )
        self._inner = inner
        self._estimates: Dict[Tuple[str, str, Hashable],
                              Tuple[Any, float, Any]] = {}
        self._actuals: Dict[Tuple[str, str, Hashable],
                            Tuple[Any, float, Any]] = {}
        #: id(status) -> (status, frozen key). Statuses handed to the
        #: oracle are immutable by contract, and in steady state they
        #: *are* the post-status objects the oracle returned earlier —
        #: an identity hit skips re-freezing entirely. Keeping the
        #: status reference pins its id against reuse.
        self._frozen_by_id: Dict[int, Tuple[Any, Hashable]] = {}
        self.hits = 0
        self.misses = 0

    @property
    def inner(self) -> SchedulingCostModel:
        """The wrapped cost model."""
        return self._inner

    def initial_status(self, device_id: str) -> Any:
        return self._inner.initial_status(device_id)

    def _freeze(self, status: Any) -> Hashable:
        if type(status) is dict:
            memo = self._frozen_by_id.get(id(status))
            if memo is not None and memo[0] is status:
                return memo[1]
            frozen = freeze_status(status)
            self._frozen_by_id[id(status)] = (status, frozen)
            return frozen
        return freeze_status(status)

    def _lookup(
        self,
        table: Dict[Tuple[str, str, Hashable], Tuple[Any, float, Any]],
        compute,
        request: SchedRequest,
        device_id: str,
        status: Any,
    ) -> Tuple[float, Any]:
        key = (request.request_id, device_id, self._freeze(status))
        entry = table.get(key)
        if entry is not None and entry[0] is request.payload:
            self.hits += 1
            return entry[1], entry[2]
        self.misses += 1
        seconds, post_status = compute(request, device_id, status)
        table[key] = (request.payload, seconds, post_status)
        return seconds, post_status

    def estimate(
        self, request: SchedRequest, device_id: str, status: Any
    ) -> Tuple[float, Any]:
        # _lookup inlined: this is the schedulers' innermost call (SA
        # evaluates it millions of times), so it must not pay two extra
        # Python frames per probe.
        if type(status) is dict:
            memo = self._frozen_by_id.get(id(status))
            if memo is not None and memo[0] is status:
                frozen = memo[1]
            else:
                frozen = freeze_status(status)
                self._frozen_by_id[id(status)] = (status, frozen)
        else:
            frozen = freeze_status(status)
        key = (request.request_id, device_id, frozen)
        entry = self._estimates.get(key)
        if entry is not None and entry[0] is request.payload:
            self.hits += 1
            return entry[1], entry[2]
        self.misses += 1
        seconds, post_status = self._inner.estimate(request, device_id,
                                                    status)
        self._estimates[key] = (request.payload, seconds, post_status)
        return seconds, post_status

    def estimate_column(
        self, requests: List[SchedRequest], device_id: str, status: Any
    ) -> List[Tuple[float, Any]]:
        """Cache-aware batch estimate: each element hits or fills the memo."""
        return [self.estimate(request, device_id, status)
                for request in requests]

    def actual(
        self, request: SchedRequest, device_id: str, status: Any
    ) -> Tuple[float, Any]:
        return self._lookup(self._actuals, self._inner.actual,
                            request, device_id, status)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def entries(self) -> int:
        return len(self._estimates) + len(self._actuals)

    def stats(self) -> Dict[str, float]:
        """Hit/miss/entry counters plus the derived hit rate."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": self.entries,
            "hit_rate": (self.hits / total) if total else 0.0,
        }

    def clear(self) -> None:
        """Drop all cached entries and reset the counters."""
        self._estimates.clear()
        self._actuals.clear()
        self._frozen_by_id.clear()
        self.hits = 0
        self.misses = 0
