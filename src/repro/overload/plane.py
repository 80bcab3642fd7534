"""The overload-control plane facade.

One object ties the three mechanisms together for the engine:

* admission control (:mod:`repro.overload.admission`) gates every
  request offered to a shared operator, with service-second estimates
  drawn from the engine cost oracle;
* bounded queues (``SharedActionOperator.limit``) are configured on
  every operator the dispatcher creates, with evictions routed back
  through the uniform shed-accounting path;
* the load shedder (:mod:`repro.overload.shedding`) runs as a periodic
  process over the dispatcher's operators.

The plane also counts what it decides, in the engine's metric
registry, for ``engine.statistics()`` and ``python -m repro metrics
--overload``: ``overload.admitted{tier}``, ``overload.rejected{tier,
reason}`` and ``overload.shed{tier, reason, query}`` (``query`` is
empty for a request no AQ emitted).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.errors import AortaError, QueueFullError
from repro.actions.request import REASON_QUEUE_FULL, ActionRequest
from repro.cost.model import CostModel
from repro.devices.base import Device
from repro.obs.metrics import Counter, Gauge
from repro.obs.spans import Observability
from repro.overload.admission import AdmissionController
from repro.overload.policy import OverloadPolicy
from repro.overload.shedding import LoadShedder
from repro.plan.action_op import SharedActionOperator
from repro.sim import Environment

#: Service-seconds charged for a request whose cost cannot be estimated
#: (no candidate, unknown device, estimation failure).
DEFAULT_SERVICE_SECONDS = 1.0


class OverloadControlPlane:
    """Admission + bounded queues + shedding behind one interface."""

    def __init__(
        self,
        env: Environment,
        policy: OverloadPolicy,
        cost_model: CostModel,
        device_lookup: Callable[[str], Device],
        fleet_size: Callable[[], int],
        *,
        obs: Observability,
    ) -> None:
        self.env = env
        self.policy = policy
        self.cost_model = cost_model
        self._device_lookup = device_lookup
        self.obs = obs
        self.admission = AdmissionController(policy, fleet_size)
        #: The periodic shedder; ``bind`` builds it.
        self.shedder: Optional[LoadShedder] = None
        registry = obs.registry
        self._admitted = registry.family(Counter, "overload.admitted",
                                         "tier")
        self._rejected = registry.family(Counter, "overload.rejected",
                                         "tier", "reason")
        self._shed = registry.family(Counter, "overload.shed",
                                     "tier", "reason", "query")
        self._pending = obs.family(Gauge, "overload.pending_requests",
                                   "action")

    # ------------------------------------------------------------------
    # Wiring (called by the dispatcher/engine during construction)
    # ------------------------------------------------------------------
    def bind(
        self,
        operators: Callable[[], Sequence[SharedActionOperator]],
        shed: Callable[[ActionRequest, str], None],
    ) -> None:
        """Attach the dispatcher's operator table and shed callback."""
        self.shedder = LoadShedder(self.env, self.policy, operators,
                                   shed, self.obs)

    def configure_operator(
        self, operator: SharedActionOperator,
        on_evict: Callable[[ActionRequest, str], None],
    ) -> None:
        """Install the bounded-queue limit on a new shared operator."""
        operator.limit = self.policy.queue_limit
        operator.on_evict = on_evict

    def start(self) -> None:
        """Launch the periodic shedder process."""
        if self.shedder is None:
            raise AortaError("overload plane started before bind()")
        self.shedder.start()

    # ------------------------------------------------------------------
    # The ingestion gate
    # ------------------------------------------------------------------
    def estimate_service_seconds(self, request: ActionRequest) -> float:
        """Cost-oracle service estimate for the capacity gate.

        Uses the first candidate's live status as the representative
        cost; estimation failures (unknown device, unprofiled action)
        fall back to a default charge rather than letting unestimable
        work bypass capacity accounting.
        """
        if not request.candidates:
            return DEFAULT_SERVICE_SECONDS
        try:
            device = self._device_lookup(request.candidates[0])
            estimate = self.cost_model.estimate(
                request.action_name, device, request.arguments)
        except AortaError:
            return DEFAULT_SERVICE_SECONDS
        return estimate.seconds

    def offer(self, operator: SharedActionOperator,
              request: ActionRequest) -> bool:
        """Admission-gate one request and submit it to its operator.

        Returns True when the request entered the pending queue; False
        when it was rejected (admission or backpressure), in which case
        the request is marked REJECTED and accounted.
        """
        now = self.env.now
        estimated = self.estimate_service_seconds(request)
        reason = self.admission.admit_request(request.priority, estimated,
                                              now)
        if reason is None:
            try:
                operator.submit(request)
            except QueueFullError:
                reason = REASON_QUEUE_FULL
        if reason is not None:
            self.note_rejected(request, reason)
            return False
        self._admitted[request.priority].inc()
        self._pending[operator.action.name].set(operator.pending_count)
        return True

    # ------------------------------------------------------------------
    # Accounting sinks
    # ------------------------------------------------------------------
    def note_rejected(self, request: ActionRequest, reason: str) -> None:
        """Account one refused request (admission or backpressure)."""
        request.mark_rejected(self.env.now, reason)
        self._rejected[request.priority, reason].inc()
        self.obs.tracer.record(
            self.env.now, "request_rejected", request=request.request_id,
            action=request.action_name, query=request.query_id,
            priority=request.priority, reason=reason)

    def note_shed(self, request: ActionRequest, reason: str) -> None:
        """Account one shed request (the dispatcher already marked it)."""
        self._shed[request.priority, reason, request.query_id].inc()
