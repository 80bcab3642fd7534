"""Keep-alive connection pooling: how the transport reuses channels.

The paper's cost tables price the connection handshake as a first-class
line item (Section 3), and every probe exchange of Section 4 pays it
again. Under many continuous queries sharing one device fleet, the
handshake dominates: each batch re-connects to each candidate it
probes, and each poll re-connects to each sensory device it scans.

:class:`ConnectionPool` amortizes that cost. A connection released back
to the pool stays open and is handed to the next caller that asks for
the same device, skipping the handshake entirely. The pool is bounded:

* **by the registry** — it is keyed by device and parks at most one
  idle channel per device, so it never holds more channels than there
  are devices, and needs no capacity of its own;
* **idle expiry** — a connection idle longer than
  :data:`POOL_IDLE_SECONDS` is considered gone (NAT mappings and radio
  sessions do not live forever) and is closed on the next checkout
  attempt;
* **invalidation** — a communication failure mid-exchange, a health
  breaker transition or the device leaving the registry discards the
  device's channel, so a dead or departed device never serves a stale
  socket to the next probe.

The pool never owns checkout bookkeeping races: a connection is either
idle (inside the pool) or checked out (held by exactly one
:meth:`Transport.exchange <repro.network.transport.Transport.exchange>`,
which takes it with :meth:`checkout`, dials only when that finds none,
and hands it back with :meth:`release` or :meth:`discard`).
Concurrent checkouts for the same device simply open extra connections;
the surplus is closed on release.

Everything is deterministic: checkout order and expiry depend only on
virtual time and call order, so pooled runs replay exactly.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

from repro.devices.base import Device
from repro.network.transport import Connection, Transport
from repro.obs.metrics import Counter, Gauge
from repro.sim import Environment

#: Virtual seconds a pooled channel may sit unused before its next
#: checkout closes it.
POOL_IDLE_SECONDS = 30.0


class _IdleEntry(NamedTuple):
    """One parked keep-alive connection."""

    connection: Connection
    idle_since: float


class ConnectionPool:
    """Pool of keep-alive device connections, one per device."""

    def __init__(self, env: Environment, transport: Transport) -> None:
        self.env = env
        self.transport = transport
        #: Device id -> its idle connection.
        self._idle: Dict[str, _IdleEntry] = {}
        # Counted in the owning transport's registry, by device type.
        registry = transport.obs.registry
        self._hits, self._misses, self._expired, self._discarded = (
            registry.family(Counter, f"comm.pool.{name}", "device_type")
            for name in ("hits", "misses", "expired", "discarded"))
        self._invalidations = registry.family(
            Counter, "comm.pool.invalidations", "reason")
        self._size = transport.obs.family(Gauge, "comm.pool.size")[()]

    def __len__(self) -> int:
        """Idle connections currently parked."""
        return len(self._idle)

    # ------------------------------------------------------------------
    # Checkout / checkin
    # ------------------------------------------------------------------
    def checkout(self, device: Device) -> Optional[Connection]:
        """Check out the channel parked for ``device``, or ``None``.

        A pool hit hands the channel over at no virtual-time cost. On a
        miss — no idle channel, or an idle channel past its expiry —
        the caller pays the full :meth:`Transport.connect` handshake.
        """
        entry = self._idle.pop(device.device_id, None)
        if entry is not None:
            self._size.set(len(self._idle))
            connection = entry.connection
            if (connection.closed or connection.device is not device
                    or self.env.now - entry.idle_since > POOL_IDLE_SECONDS):
                connection.close()
                self._expired[device.device_type].inc()
            else:
                self._hits[device.device_type].inc()
                return connection
        self._misses[device.device_type].inc()
        return None

    def release(self, connection: Connection) -> None:
        """Return a healthy channel to the pool for reuse.

        Closed connections are dropped; a surplus channel (another
        holder already parked one for the same device) is closed rather
        than pooled — one keep-alive control channel per device.
        """
        if connection.closed:
            return
        device = connection.device
        if device.device_id in self._idle:
            connection.close()
            self._discarded[device.device_type].inc()
            return
        self._idle[device.device_id] = _IdleEntry(connection, self.env.now)
        self._size.set(len(self._idle))

    def discard(self, connection: Connection) -> None:
        """Close a checked-out channel that failed mid-exchange."""
        connection.close()
        self._discarded[connection.device.device_type].inc()

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate(self, device_id: str, reason: str = "") -> None:
        """Drop the device's idle channel (if any) and close it.

        Called on health-breaker transitions and when the device leaves
        the registry: a quarantined device must not hand its stale
        socket to the probation probe that later readmits it, nor a
        departed one to whoever joins under its id.
        """
        entry = self._idle.pop(device_id, None)
        if entry is None:
            return
        entry.connection.close()
        self._invalidations[reason if reason else "unspecified"].inc()
        self._size.set(len(self._idle))
