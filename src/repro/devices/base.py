"""Device base class and shared device behaviour."""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Any, Dict, Generator

from repro.errors import DeviceDownError, DeviceError
from repro.geometry import Point
from repro.sim import Environment


#: The static epoch (DESIGN.md decision 35): bumped by every assignment
#: to a device's static state and by every registry join or leave. What
#: is derived from static state is cached under the epoch it was built
#: at and rebuilt once the epoch has moved. One count for the process:
#: an assignment anywhere costs every cache a rebuild, never a wrong
#: answer.
_static_epoch = 0


def static_epoch() -> int:
    """The current static epoch."""
    return _static_epoch


def bump_static_epoch() -> None:
    """Mark everything derived from static state as stale."""
    global _static_epoch
    _static_epoch += 1


def static_attribute(name: str) -> Any:
    """A property for the static-state attribute ``name``.

    The value lives in ``_<name>``; reading it is a C-level attribute
    fetch, and assigning it bumps the static epoch.
    """
    private = "_" + name

    def assign(device: Any, value: Any) -> None:
        setattr(device, private, value)
        bump_static_epoch()

    return property(operator.attrgetter(private), assign)


class DeviceState(enum.Enum):
    """Lifecycle state of a physical device.

    Devices "may join, move around, or leave the network dynamically in
    a way unpredictable to the system" (paper Section 4) — the probing
    mechanism exists precisely because of OFFLINE and CRASHED devices.
    """

    ONLINE = "online"
    OFFLINE = "offline"
    CRASHED = "crashed"


@dataclass
class OperationOutcome:
    """Result record of one atomic operation executed on a device."""

    device_id: str
    operation: str
    started_at: float
    finished_at: float
    succeeded: bool
    detail: Any = None

    @property
    def duration(self) -> float:
        """Seconds of virtual time the operation took."""
        return self.finished_at - self.started_at


class Device:
    """Base class of all simulated devices.

    Subclasses model one device type each and provide:

    * static (non-sensory) attributes — identity, location, addresses;
    * sensory attributes read from live physical state;
    * atomic operations, executed as simulation processes that consume
      virtual time according to the device's physical model;
    * a *physical status* snapshot used by the cost model, because "the
      cost of an action execution on a device may depend on the current
      physical status of the device" (Section 2.3).
    """

    #: Subclasses set this to their catalog device type name.
    device_type: str = "device"
    location: Point = static_attribute("location")

    def __init__(
        self,
        env: Environment,
        device_id: str,
        location: Point,
    ) -> None:
        if not device_id:
            raise DeviceError("device_id must be non-empty")
        self.env = env
        self.device_id = device_id
        self.location = location
        self.state = DeviceState.ONLINE
        #: Count of operations executed, for utilization accounting.
        self.operations_executed = 0
        #: Virtual seconds this device has spent busy on operations.
        self.busy_seconds = 0.0
        #: Straggler injection: every operation duration is multiplied
        #: by this factor (1.0 = nominal; ``x * 1.0`` is bit-exact, so
        #: a never-inflated device is byte-identical to one built
        #: before the knob existed). Set by FailureInjector stragglers.
        self.slowdown_factor = 1.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def online(self) -> bool:
        """Whether the device itself is powered and healthy."""
        return self.state is DeviceState.ONLINE

    @property
    def reachable(self) -> bool:
        """Whether the network can currently reach the device.

        Defaults to :attr:`online`; subclasses refine it — a phone is
        online but unreachable while out of carrier coverage
        (Section 4's example). The transport and the probing mechanism
        test reachability, not just health.
        """
        return self.online

    def go_offline(self) -> None:
        """Take the device off the network (clean leave)."""
        self.state = DeviceState.OFFLINE

    def go_online(self) -> None:
        """Rejoin the network."""
        self.state = DeviceState.ONLINE

    def crash(self) -> None:
        """Hard-fail the device; it stops answering until repaired."""
        self.state = DeviceState.CRASHED

    def repair(self) -> None:
        """Recover a crashed device back to service."""
        self.state = DeviceState.ONLINE

    # ------------------------------------------------------------------
    # Attributes (virtual-table columns)
    # ------------------------------------------------------------------
    def static_attributes(self) -> Dict[str, Any]:
        """Non-sensory column values for this device's table row.

        They and the mount geometry (a camera's view, height and
        calibration) are the device's *static state*: it changes only
        when someone re-mounts or re-addresses the device, through a
        :func:`static_attribute` whose assignment bumps the static
        epoch; never by executing actions or by time passing.
        """
        return {"id": self.device_id, "loc_x": self.location.x,
                "loc_y": self.location.y}

    def read_sensory(self, name: str) -> Any:
        """Acquire one sensory attribute from live device state.

        Subclasses override to expose their readings; unknown names are
        a :class:`DeviceError` so schema bugs surface loudly.
        """
        raise DeviceError(
            f"{self.device_type} {self.device_id!r} has no sensory "
            f"attribute {name!r}"
        )

    def physical_status(self) -> Dict[str, float]:
        """Snapshot of the cost-relevant physical status.

        Probing a device returns this snapshot; the optimizer feeds it
        to the cost model for device-selection optimization.
        """
        return {}

    def service_seconds(self, seconds: float) -> float:
        """Operation duration after straggler inflation.

        Device operation handlers route every physical-model duration
        through this, so an injected slowdown stretches real work
        uniformly without touching the per-operation models.
        """
        return seconds * self.slowdown_factor

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def operation_names(self) -> tuple[str, ...]:
        """The atomic operations this device supports."""
        return ()

    def execute(
        self, operation: str, **params: Any
    ) -> Generator[Any, Any, OperationOutcome]:
        """Run one atomic operation as a simulation process.

        Returns (via StopIteration) an :class:`OperationOutcome`.
        Dispatches to a method named ``op_<operation>``.
        """
        if not self.online:
            # Transient by definition: the device may come back (outage
            # end, repair), so the retry policy is allowed to try again.
            raise DeviceDownError(
                f"{self.device_type} {self.device_id!r} is {self.state.value}"
            )
        handler = getattr(self, f"op_{operation}", None)
        if handler is None:
            raise DeviceError(
                f"{self.device_type} {self.device_id!r} has no operation "
                f"{operation!r}"
            )
        started = self.env.now
        detail = yield from handler(**params)
        finished = self.env.now
        self.operations_executed += 1
        self.busy_seconds += finished - started
        return OperationOutcome(
            device_id=self.device_id,
            operation=operation,
            started_at=started,
            finished_at=finished,
            succeeded=True,
            detail=detail,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.device_id} "
            f"{self.state.value} at {self.location}>"
        )
