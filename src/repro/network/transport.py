"""Message transport between the Aorta host and devices.

The transport simulates the physical exchange: a connection handshake,
request/response round trips with medium-specific latency, packet loss
manifesting as silence (the caller burns its timeout), and devices that
left the network never answering at all. These are exactly the failure
behaviours the probing mechanism of Section 4 must detect and contain.
"""

from __future__ import annotations

import random
from typing import (Any, Dict, Generator, List, NamedTuple, Optional,
                    Sequence)

from repro.errors import (
    CommunicationError,
    ConnectionTimeoutError,
    DeviceError,
)
from repro.devices.base import Device
from repro.network.link import DEFAULT_LINKS, LinkModel
from repro.network.message import Message, Response
from repro.obs.metrics import Counter, Histogram
from repro.obs.spans import Observability
from repro.sim import Environment


class Connection:
    """An open control channel to one device."""

    def __init__(self, transport: "Transport", device: Device,
                 link: LinkModel) -> None:
        self._transport = transport
        self.device = device
        self.link = link
        self.closed = False

    def request(
        self, message: Message, timeout: float
    ) -> Generator[Any, Any, Response]:
        """One request/response round trip.

        A lost packet is silence: the caller waits out ``timeout`` and
        gets :class:`ConnectionTimeoutError`, just like probing a dead
        mote. Device-side errors come back as ``ok=False`` responses.
        """
        if self.closed:
            raise CommunicationError("request on a closed connection")
        if message.device_id != self.device.device_id:
            raise CommunicationError(
                f"message addressed to {message.device_id!r} sent over a "
                f"connection to {self.device.device_id!r}"
            )
        transport = self._transport
        env = transport.env
        rng = transport.rng
        started = env.now
        transport._requests[message.kind].inc()

        if not self.device.reachable or self.link.drops(rng):
            yield env.timeout(timeout)
            transport._request_timeouts[message.kind].inc()
            raise ConnectionTimeoutError(
                f"device {self.device.device_id!r} did not answer within "
                f"{timeout} s"
            )

        # Uplink latency.
        yield env.timeout(self.link.sample_latency(rng))
        # Device-side handling.
        try:
            value = transport._handle(self.device, message)
            ok, error = True, ""
        except (DeviceError, CommunicationError) as exc:
            value, ok, error = None, False, str(exc)
        # Downlink latency.
        yield env.timeout(self.link.sample_latency(rng))
        if not self.device.reachable:
            transport._request_timeouts[message.kind].inc()
            raise ConnectionTimeoutError(
                f"device {self.device.device_id!r} went away mid-exchange"
            )
        transport._rtt[message.kind].observe(env.now - started)
        return Response(self.device.device_id, ok, value, error,
                        env.now - started)

    def close(self) -> None:
        """Release the channel. Idempotent."""
        self.closed = True


class Exchange(NamedTuple):
    """What one :meth:`Transport.exchange` came to: one per exchange,
    so a tuple built positionally."""

    #: The replies, in message order, up to and including a refusal.
    responses: List[Response]
    #: The step that failed — ``connect`` or the failing message's kind
    #: — or ``""`` when every message was answered.
    failed: str = ""
    #: Why the step failed: ``"<kind> failed: <device error>"`` for a
    #: refusal, the channel's own error otherwise.
    error: str = ""


class Transport:
    """Factory of connections over per-type link models.

    :meth:`connect` is the raw handshake; everything above the network
    layer talks to a device through :meth:`exchange`, which owns the
    channel's checkout from the keep-alive pool and its return.
    (Action executions call the device model directly; none crosses
    the transport.)
    """

    def __init__(
        self,
        env: Environment,
        *,
        links: Optional[Dict[str, LinkModel]] = None,
        rng: random.Random,
        obs: Observability,
    ) -> None:
        # Deferred: repro.comm imports this module.
        from repro.comm.pool import ConnectionPool
        self.env = env
        self.links = dict(DEFAULT_LINKS if links is None else links)
        self.rng = rng
        #: The engine's sink, shared with the pool and the prober.
        self.obs = obs
        registry = self.obs.registry
        self._requests = registry.family(Counter, "comm.requests", "kind")
        self._request_timeouts = registry.family(
            Counter, "comm.request_timeouts", "kind")
        self._rtt = self.obs.family(Histogram, "comm.rtt_seconds", "kind")
        self._connects = registry.family(
            Counter, "comm.connects", "device_type")
        self._connect_timeouts = registry.family(
            Counter, "comm.connect_timeouts", "device_type")
        self._connect_seconds = self.obs.family(
            Histogram, "comm.connect_seconds", "device_type")
        #: Keep-alive pool of idle control channels, one per device.
        self.pool = ConnectionPool(env, self)

    def link_for(self, device: Device) -> LinkModel:
        """The link model of the device's medium."""
        try:
            return self.links[device.device_type]
        except KeyError:
            raise CommunicationError(
                f"no link model registered for device type "
                f"{device.device_type!r}"
            ) from None

    def connect(
        self, device: Device, timeout: float
    ) -> Generator[Any, Any, Connection]:
        """Open a connection; an unreachable device costs the full timeout."""
        if timeout <= 0:
            raise CommunicationError(f"timeout must be positive, got {timeout}")
        link = self.link_for(device)
        started = self.env.now
        self._connects[device.device_type].inc()
        if not device.reachable or link.drops(self.rng):
            yield self.env.timeout(timeout)
            self._connect_timeouts[device.device_type].inc()
            raise ConnectionTimeoutError(
                f"connect to {device.device_id!r} timed out after {timeout} s"
            )
        handshake = 2 * link.sample_latency(self.rng)
        if handshake >= timeout:
            yield self.env.timeout(timeout)
            self._connect_timeouts[device.device_type].inc()
            raise ConnectionTimeoutError(
                f"connect to {device.device_id!r} timed out after {timeout} s"
            )
        yield self.env.timeout(handshake)
        self._connect_seconds[device.device_type].observe(
            self.env.now - started)
        return Connection(self, device, link)

    def exchange(
        self, device: Device, messages: Sequence[Message], timeout: float
    ) -> Generator[Any, Any, Exchange]:
        """Run ``messages``' round trips over the device's control channel.

        The channel comes from the keep-alive pool, or from a handshake
        when none is parked, so the handshake is paid once per device per
        idle window. The round trips run in order and stop at the first
        refusal. The channel then goes back under one rule: parked,
        unless it broke (silence, or the device gone mid-exchange). The
        :class:`Exchange` names the step that failed, and why.
        """
        connection = self.pool.checkout(device)
        if connection is None:
            try:
                connection = yield from self.connect(device, timeout)
            except CommunicationError as exc:
                return Exchange([], "connect", str(exc))
        responses: List[Response] = []
        failed = error = ""
        for message in messages:
            try:
                response = yield from connection.request(message, timeout)
            except BaseException as exc:
                # The channel broke, or the exchange was abandoned
                # mid-flight (its generator closed): never park it.
                self.pool.discard(connection)
                if not isinstance(exc, CommunicationError):
                    raise
                return Exchange(responses, message.kind, str(exc))
            responses.append(response)
            if not response.ok:
                # The device answered, so the channel is sound.
                failed = message.kind
                error = f"{failed} failed: {response.error}"
                break
        self.pool.release(connection)
        return Exchange(responses, failed, error)

    def invalidate(self, device_id: str, reason: str = "") -> None:
        """Close the device's parked channel, if it has one."""
        self.pool.invalidate(device_id, reason=reason)

    def _handle(self, device: Device, message: Message) -> Any:
        """Device-side message dispatch."""
        if message.kind == "ping":
            return {"ok": True, "device_type": device.device_type}
        if message.kind == "read_attributes":
            return {name: device.read_sensory(name)
                    for name in message.payload["names"]}
        if message.kind == "status":
            return device.physical_status()
        raise CommunicationError(f"unhandled message kind {message.kind!r}")
