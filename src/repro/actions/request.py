"""Action requests: instantiated calls awaiting scheduling.

"We define an action request as the request from a query for the
execution of an action with instantiated input parameter values for the
action." (Section 5)
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

_request_counter = itertools.count(1)

#: Why overload control refused a request (``mark_rejected``) or dropped
#: an accepted one (``mark_shed``): one string per reason, also the
#: ``reason`` label of ``overload.rejected`` / ``overload.shed``. Here
#: because the plan, the dispatcher and the overload plane all use them.
REASON_RATE = "admission-rate"          # rejected: tier rate limit
REASON_CAPACITY = "admission-capacity"  # rejected: fleet capacity window
REASON_QUEUE_FULL = "queue-full"        # full queue, incoming is worst
REASON_EVICTED = "queue-evicted"        # shed: a full queue made room
REASON_DEADLINE = "deadline-expired"    # shed: a late answer is useless
REASON_PRESSURE = "load-shed"           # shed: backlog over the watermark


class RequestState(enum.Enum):
    """Lifecycle of an action request through the scheduler."""

    PENDING = "pending"        # emitted by a query, not yet scheduled
    ASSIGNED = "assigned"      # bound to a device, queued or running
    SERVICED = "serviced"      # action completed successfully
    FAILED = "failed"          # action failed on the device
    # Overload-control outcomes (only reachable with the overload
    # plane configured; see repro.overload).
    SHED = "shed"              # accepted, then dropped by load-shedding
    REJECTED = "rejected"      # refused at admission / queue backpressure


@dataclass
class ActionRequest:
    """One request for one action execution with bound arguments."""

    action_name: str
    arguments: Dict[str, Any]
    #: The continuous query that emitted this request (operator sharing
    #: tags tuples with query IDs, Section 2.3).
    query_id: str = ""
    #: Virtual time at which the request appeared in the action operator.
    created_at: float = 0.0
    #: Candidate devices eligible to service this request.
    candidates: Tuple[str, ...] = ()
    request_id: str = field(
        default_factory=lambda: f"req{next(_request_counter)}")
    state: RequestState = RequestState.PENDING
    #: Device that serviced (or failed) the request.
    assigned_device: Optional[str] = None
    #: Virtual time the action finished, for completion-time accounting.
    completed_at: Optional[float] = None
    #: The action's return value (e.g. a Photo) or failure reason.
    result: Any = None
    failure_reason: str = ""
    #: Execution attempts across every device the request ran on.
    attempts: int = 0
    #: Times this request entered a dispatch batch (failover re-entry
    #: increments it; the dispatcher caps it at ``MAX_DISPATCHES``).
    dispatches: int = 0
    #: Devices that failed this request, removed from its candidates by
    #: failover re-dispatch.
    failed_devices: Tuple[str, ...] = ()
    #: Priority tier for overload control (larger = more important).
    #: Load-shedding drops the lowest tiers first; tiers at or above
    #: the policy's protected tier are never pressure-shed.
    priority: int = 1
    #: Absolute virtual-time service deadline; ``None`` = no deadline.
    #: With overload control on, a request whose deadline has passed is
    #: shed instead of serviced late.
    deadline: Optional[float] = None

    def mark_assigned(self, device_id: str) -> None:
        """Record the scheduler's device choice."""
        self.assigned_device = device_id
        self.state = RequestState.ASSIGNED

    def mark_requeued(self, failed_device: Optional[str]) -> None:
        """Failover: back to PENDING with the failed device blacklisted.

        The request re-enters its shared operator's queue; the next
        batch reschedules it over the surviving candidates.
        """
        if failed_device is not None:
            self.failed_devices = self.failed_devices + (failed_device,)
            self.candidates = tuple(
                device_id for device_id in self.candidates
                if device_id != failed_device)
        self.assigned_device = None
        self.state = RequestState.PENDING

    def mark_serviced(self, completed_at: float, result: Any = None) -> None:
        """Record successful completion."""
        self.state = RequestState.SERVICED
        self.completed_at = completed_at
        self.result = result

    def mark_failed(self, completed_at: float, reason: str) -> None:
        """Record failure (timeout, interference, device fault...)."""
        self.state = RequestState.FAILED
        self.completed_at = completed_at
        self.failure_reason = reason

    def mark_shed(self, completed_at: float, reason: str) -> None:
        """Record that overload control dropped this accepted request."""
        self.state = RequestState.SHED
        self.completed_at = completed_at
        self.failure_reason = reason

    def mark_rejected(self, at: float, reason: str) -> None:
        """Record refusal at admission (the request never entered)."""
        self.state = RequestState.REJECTED
        self.completed_at = at
        self.failure_reason = reason

    def worth(self) -> Tuple[int, float, float]:
        """Sort key, least worth keeping first: tier, deadline, age.

        Lowest priority tier first, then earliest deadline — the entry
        closest to expiring, hence least likely to be serviceable; no
        deadline sorts after any dated one — then oldest submission.
        Eviction and load-shedding drop its minimum; service order
        negates the tier to serve the highest first.
        """
        deadline = self.deadline if self.deadline is not None \
            else float("inf")
        return (self.priority, deadline, self.created_at)

    def deadline_expired(self, now: float) -> bool:
        """Whether the service deadline (if any) has already passed."""
        return self.deadline is not None and now > self.deadline

    @property
    def completion_seconds(self) -> Optional[float]:
        """Seconds from appearance to completion, if completed."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.created_at
