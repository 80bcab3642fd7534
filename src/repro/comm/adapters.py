"""Basic communication methods and per-type protocol adapters.

"The communication layer implements a common interface that defines a
set of basic communication methods such as connect(), close(), send()
and receive(). ... Each type of devices inherits this interface in its
own communication module." (Section 3.3)

:class:`BaseCommunicator` provides the four basic methods on top of the
simulated transport; the camera/sensor/phone subclasses are the
type-specific communication modules, adding the conveniences their
protocols support.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Generator, Optional

from repro.errors import CommunicationError, DeviceError
from repro.devices.base import Device, OperationOutcome
from repro.network.message import Message, Response
from repro.network.transport import Connection, Transport
from repro.runtime import Runtime
from repro.sim.process import Process


class BaseCommunicator:
    """The common communication interface of Section 3.3.

    One communicator manages one device's control channel. ``send()``
    launches the exchange in the background; ``receive()`` awaits the
    oldest in-flight response, so callers may pipeline requests. The
    composite ``request()`` is the common send-then-receive pattern.
    """

    def __init__(self, env: Runtime, transport: Transport,
                 device: Device, timeout: float) -> None:
        if timeout <= 0:
            raise CommunicationError(f"timeout must be positive, got {timeout}")
        self.env = env
        self.transport = transport
        self.device = device
        self.timeout = timeout
        self._connection: Optional[Connection] = None
        self._in_flight: Deque[Process] = deque()

    # ------------------------------------------------------------------
    # The four basic methods
    # ------------------------------------------------------------------
    def connect(self) -> Generator[Any, Any, None]:
        """Open the control channel (no-op when already open).

        Checkout goes through :meth:`Transport.open`, so reconnecting
        to a recently-used device takes its parked keep-alive channel
        and skips the handshake.
        """
        if self._connection is not None and not self._connection.closed:
            return
        self._connection = yield from self.transport.open(
            self.device, self.timeout)

    def close(self) -> None:
        """Release the control channel and drop in-flight exchanges.

        The healthy channel is parked in the transport's pool for reuse
        rather than torn down. A channel abandoned with exchanges still
        in flight is never pooled — the next holder must not inherit
        them.
        """
        if self._connection is not None:
            if self._in_flight:
                self.transport.discard(self._connection)
            else:
                self.transport.release(self._connection)
            self._connection = None
        self._in_flight.clear()

    def send(self, message: Message) -> Generator[Any, Any, None]:
        """Dispatch a request without waiting for its response."""
        connection = self._require_connection()
        exchange = self.env.process(
            connection.request(message, self.timeout))
        exchange.defuse()
        self._in_flight.append(exchange)
        # Sending itself is instantaneous at this abstraction level; the
        # medium latency is accounted inside the exchange.
        return
        yield  # pragma: no cover - generator protocol

    def receive(self) -> Generator[Any, Any, Response]:
        """Await the response to the oldest outstanding send()."""
        if not self._in_flight:
            raise CommunicationError(
                f"receive() on {self.device.device_id!r} with no "
                f"outstanding request"
            )
        exchange = self._in_flight.popleft()
        try:
            response = yield exchange
        except CommunicationError:
            # The channel failed mid-exchange: it must never be pooled
            # for reuse.
            if self._connection is not None:
                self.transport.discard(self._connection)
                self._connection = None
            raise
        return response

    def request(self, message: Message) -> Generator[Any, Any, Response]:
        """Send one message and await its response."""
        yield from self.send(message)
        return (yield from self.receive())

    def _require_connection(self) -> Connection:
        if self._connection is None or self._connection.closed:
            raise CommunicationError(
                f"not connected to {self.device.device_id!r}; call connect()"
            )
        return self._connection

    @property
    def connected(self) -> bool:
        """Whether the control channel is currently open."""
        return self._connection is not None and not self._connection.closed

    # ------------------------------------------------------------------
    # Conveniences shared by every device type
    # ------------------------------------------------------------------
    def acquire(self, attribute: str) -> Generator[Any, Any, Any]:
        """Read one sensory attribute from the live device."""
        response = yield from self.request(Message(
            kind="read_attribute", device_id=self.device.device_id,
            payload={"name": attribute}))
        if not response.ok:
            raise DeviceError(
                f"reading {attribute!r} on {self.device.device_id!r} "
                f"failed: {response.error}"
            )
        return response.value

    def status(self) -> Generator[Any, Any, Dict[str, float]]:
        """Fetch the device's physical-status snapshot."""
        response = yield from self.request(Message(
            kind="status", device_id=self.device.device_id))
        if not response.ok:
            raise DeviceError(
                f"status of {self.device.device_id!r} failed: {response.error}"
            )
        return response.value

    def execute(self, operation: str,
                **params: Any) -> Generator[Any, Any, OperationOutcome]:
        """Run one atomic operation on the device, returning its outcome."""
        response = yield from self.request(Message(
            kind="execute", device_id=self.device.device_id,
            payload={"operation": operation, "params": params}))
        if not response.ok:
            raise DeviceError(
                f"operation {operation!r} on {self.device.device_id!r} "
                f"failed: {response.error}"
            )
        return response.value


class CameraCommunicator(BaseCommunicator):
    """HTTP-over-LAN protocol module for PTZ network cameras."""

    def move_head(self, target: Any) -> Generator[Any, Any, OperationOutcome]:
        """Slew the camera head to a :class:`HeadPosition`."""
        return (yield from self.execute("move_head", target=target))

    def capture(self, size: str = "medium") -> Generator[Any, Any, OperationOutcome]:
        """Expose one frame of the given size."""
        return (yield from self.execute(f"capture_{size}"))


class SensorCommunicator(BaseCommunicator):
    """Multi-hop radio protocol module for MICA2 motes."""

    def read_sample(self) -> Generator[Any, Any, OperationOutcome]:
        """Sample all sensory attributes in one radio exchange."""
        return (yield from self.execute("read_sample"))


class PhoneCommunicator(BaseCommunicator):
    """Carrier-network protocol module for phones."""

    def deliver_sms(self, sender: str, body: str
                    ) -> Generator[Any, Any, OperationOutcome]:
        """Deliver a text message to the phone."""
        return (yield from self.execute("receive_sms", sender=sender, body=body))

    def deliver_mms(self, sender: str, body: str, attachment: str,
                    size_kb: float = 100.0
                    ) -> Generator[Any, Any, OperationOutcome]:
        """Deliver a multimedia message to the phone."""
        return (yield from self.execute(
            "receive_mms", sender=sender, body=body,
            attachment=attachment, size_kb=size_kb))


#: Adapter class per built-in device type.
ADAPTER_CLASSES = {
    "camera": CameraCommunicator,
    "sensor": SensorCommunicator,
    "phone": PhoneCommunicator,
}
