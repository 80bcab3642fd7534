"""Exception hierarchy for the Aorta framework.

Every error raised by :mod:`repro` derives from :class:`AortaError`, so
applications can catch framework failures with a single ``except`` clause
while still being able to discriminate the subsystem that failed.

Errors are additionally classified as *transient* or *permanent* for the
fault-tolerance layer: a transient failure (timeout, coverage dropout,
lock contention, a device mid-outage) may heal on its own, so retrying —
on the same device or a surviving candidate — is worthwhile; a permanent
failure (bad request, unknown action, missing capability) will fail
identically on every attempt and must not be retried. Use
:func:`is_transient` to classify a caught exception.
"""

from __future__ import annotations

#: ActionFailedError reasons that indicate a healable condition. An
#: out-of-set reason means retrying the identical request on the
#: identical device is not expected to fix it: ``blurred`` and
#: ``wrong_position`` mean the action ran but produced a bad result,
#: and a camera's ``no_coverage`` is geometric — a fixed camera never
#: grows a field of view. (A *phone's* carrier-coverage dropout is the
#: transient kind, and surfaces as a :class:`CommunicationError`.)
TRANSIENT_ACTION_REASONS = frozenset({
    "timeout",
    "device_crash",
    "device_offline",
    "lock_contention",
})


def is_transient(error: BaseException) -> bool:
    """Whether ``error`` describes a failure that may heal on retry.

    Reason-carrying :class:`ActionFailedError` instances are classified
    by reason; every other framework error carries a class-level
    ``transient`` flag. Non-Aorta exceptions are never transient.
    """
    if isinstance(error, ActionFailedError):
        return error.reason in TRANSIENT_ACTION_REASONS
    return isinstance(error, AortaError) and error.transient


class AortaError(Exception):
    """Base class for all Aorta framework errors."""

    #: Whether failures of this class are expected to heal on their own
    #: (see :func:`is_transient`). Permanent unless a subclass says so.
    transient: bool = False


class SimulationError(AortaError):
    """The discrete-event kernel was used incorrectly."""


class DeviceError(AortaError):
    """A device-level failure (unknown device, bad operation, crash)."""


class DeviceDownError(DeviceError):
    """The device is offline or crashed right now, but may recover.

    Raised when an operation reaches a device that is mid-outage —
    distinct from the permanent :class:`DeviceError` cases (unknown
    operation, missing capability) precisely so the retry policy can
    tell them apart.
    """

    transient = True


class ActionFailedError(DeviceError):
    """An action executed on a device but did not complete correctly."""

    def __init__(self, message: str, *, reason: str = "unknown") -> None:
        super().__init__(message)
        #: Machine-readable failure reason: ``timeout``, ``blurred``,
        #: ``wrong_position``, ``device_crash``, ``no_coverage`` ...
        self.reason = reason


class CommunicationError(AortaError):
    """A transport-level failure in the uniform communication layer."""

    transient = True


class ConnectionTimeoutError(CommunicationError):
    """connect() or a request/response exchange exceeded its deadline."""


class ProfileError(AortaError):
    """A device or action profile is malformed or inconsistent."""


class QueryError(AortaError):
    """Base class for declarative-interface errors."""


class ParseError(QueryError):
    """The SQL text could not be parsed."""

    def __init__(self, message: str, *, line: int = 0, column: int = 0) -> None:
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class BindingError(QueryError):
    """A query referenced an unknown table, attribute, action or function."""


class PlanError(QueryError):
    """A valid AST could not be turned into an executable plan."""


class SchedulingError(AortaError):
    """The action workload scheduling subsystem was misused."""


class InfeasibleScheduleError(SchedulingError):
    """A request has an empty candidate device set."""


class RegistrationError(AortaError):
    """An action, query or device was registered twice or inconsistently."""


class OverloadError(AortaError):
    """The overload-control plane refused or dropped work.

    Overload conditions heal when offered load falls (queues drain,
    token buckets refill), so these errors are transient: a producer
    that backs off and re-offers later may succeed.
    """

    transient = True


class QueueFullError(OverloadError):
    """A bounded pending queue refused a submission (backpressure).

    Raised by :meth:`~repro.plan.action_op.SharedActionOperator.submit`
    when the operator's queue is at its limit and the incoming request
    is the least worth keeping. The producer should treat this as a
    deferred-retry signal, not a permanent failure.
    """


class ShardingError(AortaError):
    """The sharded fleet coordinator was misused.

    Raised for placement violations (a device no region placement
    knows, a shard index out of range), operations that need a single
    shard (snapshot SELECT on a multi-shard fleet), and requests whose
    candidate devices are registered on no shard.
    """
