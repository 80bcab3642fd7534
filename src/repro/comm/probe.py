"""The probing mechanism (paper Section 4).

"The probing mechanism is for the optimizer to examine each candidate
before deciding whether it should be included in the device selection
optimization. A probe on a candidate device includes the transmission
of several messages between the optimizer and the device." A
system-provided per-type TIMEOUT breaks probes on unresponsive devices,
which are then excluded from optimization; a successful probe also
returns the device's current physical status for cost estimation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Dict, Generator, List, Optional,
                    Tuple)

from repro.devices.base import Device, static_epoch
from repro.network.message import Message
from repro.network.transport import Transport
from repro.obs.metrics import Counter, Histogram
from repro.sim import Environment, raise_first_error

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.devices.health import DeviceHealthTracker
    from repro.obs.spans import SpanContext

#: System-provided probe TIMEOUT per device type, in seconds. Cameras
#: answer over the LAN quickly; motes may need radio retries; phones go
#: through the carrier network.
DEFAULT_TIMEOUTS: Dict[str, float] = {
    "camera": 1.0,
    "sensor": 0.5,
    "phone": 2.0,
}

#: Timeout of a device type registered without one and not listed above.
FALLBACK_TIMEOUT = 1.0


@dataclass
class ProbeResult:
    """Outcome of probing one candidate device."""

    device_id: str
    available: bool
    #: Physical-status snapshot when available, for the cost model.
    status: Dict[str, float] = field(default_factory=dict)
    round_trip_seconds: float = 0.0
    #: On failure: ``"<phase>: <detail>"`` where phase is the exchange
    #: step that broke — ``connect``, ``ping`` or ``status``.
    error: str = ""


class Prober:
    """Probes candidate devices before device-selection optimization."""

    def __init__(
        self,
        env: Environment,
        transport: Transport,
        timeouts: Dict[str, float],
    ) -> None:
        self.env = env
        self.transport = transport
        #: Device type -> TIMEOUT: the communication layer's dict, read
        #: in place (a device is only admitted once its type has one).
        self.timeouts = timeouts
        #: Optional circuit-breaker sink: every probe outcome is
        #: reported here so repeated misses quarantine the device.
        self.health: Optional["DeviceHealthTracker"] = None
        #: Metrics + spans: the transport's.
        self.obs = transport.obs
        self._sent = self.obs.registry.family(
            Counter, "probe.sent", "device_type")
        self._failed = self.obs.registry.family(
            Counter, "probe.failed", "device_type", "phase")
        self._rtt = self.obs.family(Histogram, "probe.rtt_seconds",
                                    "device_type")
        #: Device ID -> its (ping, status) messages, valid at
        #: ``_static_epoch``: a message is immutable, so each is built
        #: once.
        self._messages: Dict[str, Tuple[Message, Message]] = {}
        self._static_epoch = -1

    def _probe_messages(self, device: Device) -> Tuple[Message, Message]:
        """The device's ping and status messages, built once per static
        epoch."""
        epoch = static_epoch()
        if epoch != self._static_epoch:
            self._static_epoch = epoch
            self._messages = {}
        messages = self._messages.get(device.device_id)
        if messages is None:
            messages = self._messages[device.device_id] = (
                Message(kind="ping", device_id=device.device_id),
                Message(kind="status", device_id=device.device_id),
            )
        return messages

    def probe(
        self, device: Device,
        parent_span: Optional["SpanContext"] = None,
    ) -> Generator[Any, Any, ProbeResult]:
        """Check one candidate's availability and fetch its status.

        The probe is the paper's several-message exchange: a connection
        handshake, a ping, and a status request. Any timeout or
        communication failure marks the device unavailable — it never
        raises, because an unavailable candidate is an expected outcome
        that simply excludes the device from optimization.
        """
        timeout = self.timeouts[device.device_type]
        started = self.env.now
        self._sent[device.device_type].inc()
        with self.obs.span("probe", parent=parent_span, detached=True,
                           device=device.device_id):
            exchange = yield from self.transport.exchange(
                device, self._probe_messages(device), timeout)
            self._rtt[device.device_type].observe(self.env.now - started)
            if exchange.failed:
                self._failed[device.device_type, exchange.failed].inc()
                if self.health is not None:
                    self.health.record_failure(
                        device.device_id, reason=f"probe {exchange.failed}")
                return ProbeResult(
                    device_id=device.device_id,
                    available=False,
                    round_trip_seconds=self.env.now - started,
                    error=f"{exchange.failed}: {exchange.error}",
                )
            if self.health is not None:
                self.health.record_success(device.device_id)
            return ProbeResult(
                device_id=device.device_id,
                available=True,
                status=exchange.responses[1].value,
                round_trip_seconds=self.env.now - started,
            )

    def probe_all(
        self, devices: List[Device],
        parent_span: Optional["SpanContext"] = None,
    ) -> Generator[Any, Any, List[ProbeResult]]:
        """Probe candidates concurrently; results in input order.

        Probing in parallel matters: a single dead mote would otherwise
        stall device selection for its whole TIMEOUT. The probes are the
        members of one fan-out, so a batch costs the kernel two events
        beyond the probes' own. An empty candidate list — routine once
        the status cache answers for every device in a batch — returns
        without waiting on anything. A probe never raises by design; if
        one does anyway, the error is raised here once every probe has
        ended.
        """
        if not devices:
            return []
        return raise_first_error((yield self.env.fan_out(
            [self.probe(device, parent_span=parent_span)
             for device in devices])))
