"""A memoizing cost oracle for algorithms that revisit their estimates.

A memo keyed on ``(request, device, status)`` pays only where an
algorithm asks about the same triple again, and Section 5's cost is
sequence-dependent: every action changes the device's physical status,
so the greedy algorithms — which advance a device's status after each
assignment and never go back — almost never repeat a key inside one
batch (SRFAE and LS 0 %, LERFA+SRFE 0.5-2.4 % on the engine's batch
shapes), and a probe that misses is pure overhead. Simulated annealing
is the exception by construction: every proposed move re-walks a queue
suffix it has mostly walked before (25-95 % hits on the same shapes),
and against the engine's resolver + profile pipeline a hit is several
times cheaper than the estimate it replaces. So the memo is SA's:
:class:`~repro.scheduling.base.Scheduler` wraps a problem's cost model
in a :class:`CachingCostModel` only for an algorithm that declares
``memoizes`` and a model that declares ``cache_by_default`` (DESIGN.md
decision 6 has the measurements).

Fidelity contract: for a *deterministic* inner model the memo is
observationally transparent — every scheduler produces byte-identical
schedules with and without it (enforced by the property tests in
``tests/scheduling/test_cost_cache.py``). Non-deterministic models
(``estimate_noise > 0``) are refused: memoizing a stochastic oracle
would freeze its first draw and silently change the experiment.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Mapping, Tuple

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

    ``estimate`` is memoized under ``(request_id, device_id,
    frozen_status)``; ``actual`` passes through to the inner model. A
    memo belongs to one problem — request ids are unique there, which
    is what makes the id a sound key — and lives for one
    ``Scheduler.schedule`` call, which builds it (see the module
    docstring for when). A caller may also hand a scheduler a problem
    whose model is already wrapped; it is then used as it is, by any
    algorithm.
    """

    deterministic = True

    def __init__(self, inner: SchedulingCostModel) -> None:
        if isinstance(inner, CachingCostModel):
            raise SchedulingError("refusing to cache a cache")
        if not inner.deterministic:
            raise SchedulingError(
                "refusing to memoize a non-deterministic cost model: "
                "caching would freeze its first draw"
            )
        self._inner = inner
        self._estimates: Dict[Tuple[str, str, Hashable],
                              Tuple[float, Any]] = {}
        #: id(status) -> (status, frozen key). Statuses handed to the
        #: oracle are immutable by contract, and past the first walk
        #: they *are* the post-status objects the oracle returned
        #: earlier — an identity hit skips re-freezing entirely.
        #: Keeping the status reference pins its id against reuse.
        self._frozen_by_id: Dict[int, Tuple[Any, Hashable]] = {}
        self.hits = 0
        self.misses = 0

    @property
    def inner(self) -> SchedulingCostModel:
        """The wrapped cost model."""
        return self._inner

    def initial_status(self, device_id: str) -> Any:
        return self._inner.initial_status(device_id)

    def estimate(
        self, request: SchedRequest, device_id: str, status: Any
    ) -> Tuple[float, Any]:
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
        if entry is not None:
            self.hits += 1
            return entry
        self.misses += 1
        entry = self._estimates[key] = self._inner.estimate(
            request, device_id, status)
        return entry

    def actual(
        self, request: SchedRequest, device_id: str, status: Any
    ) -> Tuple[float, Any]:
        return self._inner.actual(request, device_id, status)

    def stats(self) -> Dict[str, float]:
        """Hit and miss counters plus the derived hit rate."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / total) if total else 0.0,
        }
