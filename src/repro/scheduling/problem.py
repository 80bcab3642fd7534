"""Problem instances for action workload scheduling (Figure 2)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple

from repro.errors import InfeasibleScheduleError, SchedulingError


@dataclass(frozen=True)
class SchedRequest:
    """One action request r_i with its candidate device set D_i."""

    request_id: str
    candidates: Tuple[str, ...]
    #: Opaque action payload the cost model understands (for the camera
    #: workloads this is the target head position).
    payload: Any = None

    def __post_init__(self) -> None:
        if not self.request_id:
            raise SchedulingError("request_id must be non-empty")
        if not self.candidates:
            raise InfeasibleScheduleError(
                f"request {self.request_id!r} has no candidate devices"
            )
        if len(set(self.candidates)) != len(self.candidates):
            raise SchedulingError(
                f"request {self.request_id!r} lists a candidate twice"
            )


class SchedulingCostModel:
    """Cost oracle of a problem instance.

    ``estimate`` returns ``(seconds, post_status)`` — the sequence-
    dependent cost of servicing a request from a given device status,
    and the status the device is left in. ``actual`` is what execution
    really costs; by default it equals the estimate (the paper found its
    cost model "reasonably accurate"), and subclasses may add estimation
    error for robustness studies.

    ``deterministic`` declares that repeated ``estimate``/``actual``
    calls with identical inputs return identical results; only
    deterministic models are eligible for memoization through
    :class:`~repro.scheduling.cost_cache.CachingCostModel`. Models that
    draw noise must override it to ``False``.

    ``cache_by_default`` asks an algorithm that memoizes (simulated
    annealing, which re-walks queue suffixes) to put this model behind
    a per-schedule memo. Leave it ``False`` for cheap analytic models —
    a memo probe costs about as much as their estimate, and SA runs
    0.7x as fast with one on the Figure 4-6 camera model — and set it
    ``True`` when an estimate dwarfs a dict probe (the engine's
    resolver + profile pipeline). Algorithms that do not revisit their
    estimates ignore it.
    """

    deterministic: bool = True
    cache_by_default: bool = False

    def initial_status(self, device_id: str) -> Any:
        """The device's physical status before any request is serviced."""
        raise NotImplementedError

    def estimate(
        self, request: SchedRequest, device_id: str, status: Any
    ) -> Tuple[float, Any]:
        """Estimated ``(seconds, post_status)`` for one servicing."""
        raise NotImplementedError

    def actual(
        self, request: SchedRequest, device_id: str, status: Any
    ) -> Tuple[float, Any]:
        """True ``(seconds, post_status)``; defaults to the estimate."""
        return self.estimate(request, device_id, status)


class StaticCostModel(SchedulingCostModel):
    """Sequence-independent costs from an explicit (request, device) map.

    Useful for unit tests and for comparing against scheduling-theory
    results where job processing times are fixed per machine.
    """

    def __init__(self, costs: Mapping[Tuple[str, str], float]) -> None:
        for (request_id, device_id), seconds in costs.items():
            if seconds < 0:
                raise SchedulingError(
                    f"negative cost for ({request_id!r}, {device_id!r})"
                )
        self._costs = dict(costs)

    def initial_status(self, device_id: str) -> None:
        return None

    def estimate(
        self, request: SchedRequest, device_id: str, status: Any
    ) -> Tuple[float, Any]:
        try:
            return self._costs[(request.request_id, device_id)], None
        except KeyError:
            raise SchedulingError(
                f"no cost defined for ({request.request_id!r}, "
                f"{device_id!r})"
            ) from None


@dataclass
class Problem:
    """One Action Workload Scheduling Problem instance.

    Input: a set R of n action requests, a set D of m devices, candidate
    sets D_i ⊆ D, and pair weights given by the cost model. Output (from
    a scheduler): an assignment of every request to a candidate device,
    minimizing makespan.
    """

    requests: Tuple[SchedRequest, ...]
    device_ids: Tuple[str, ...]
    cost_model: SchedulingCostModel
    #: Free-form description for benchmark reporting.
    label: str = ""

    def __post_init__(self) -> None:
        if not self.device_ids:
            raise SchedulingError("a problem needs at least one device")
        if len(set(self.device_ids)) != len(self.device_ids):
            raise SchedulingError("duplicate device ids")
        by_id: Dict[str, SchedRequest] = {}
        devices = set(self.device_ids)
        for request in self.requests:
            if request.request_id in by_id:
                raise SchedulingError(
                    f"duplicate request id {request.request_id!r}"
                )
            by_id[request.request_id] = request
            unknown = set(request.candidates) - devices
            if unknown:
                raise SchedulingError(
                    f"request {request.request_id!r} names unknown "
                    f"devices: {sorted(unknown)}"
                )
        #: Request lookup index; keeps `request()` (and everything built
        #: on it: Schedule.validate, the metrics, the dispatcher's
        #: assignment loop) O(1) per lookup instead of O(n).
        self._requests_by_id = by_id

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    def request(self, request_id: str) -> SchedRequest:
        """Look up a request by id."""
        try:
            return self._requests_by_id[request_id]
        except KeyError:
            raise SchedulingError(
                f"unknown request {request_id!r}") from None

    def initial_statuses(self) -> Dict[str, Any]:
        """Fresh pre-execution status of every device."""
        return {device_id: self.cost_model.initial_status(device_id)
                for device_id in self.device_ids}
