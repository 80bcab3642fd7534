"""Scan operators over virtual device tables (paper Section 3.2).

"The communication layer abstracts each type of devices into a virtual
relational table. It then provides special 'scan operators' as simple
interfaces for the query engine to acquire device data tuples from
these virtual tables." Sensory attributes are acquired live over the
network; non-sensory attributes come from static catalog data.
"""

from __future__ import annotations

from typing import Any, Generator, List

from repro.errors import (
    CommunicationError,
    ConnectionTimeoutError,
    DeviceError,
)
from repro.devices.base import Device
from repro.devices.registry import DeviceRegistry
from repro.comm.tuples import DeviceTuple
from repro.network.message import Message
from repro.network.transport import Transport
from repro.profiles.schema import DeviceCatalog
from repro.runtime import Runtime


class ScanOperator:
    """Produces the current rows of one virtual device table.

    Each scan generates tuples on-the-fly: static columns from the
    device registry, sensory columns via live network reads. Devices
    that fail to answer contribute no row (they are unreachable, so the
    query engine must not see stale data for them) — the scan records
    them in :attr:`skipped` for observability.
    """

    def __init__(
        self,
        env: Runtime,
        transport: Transport,
        registry: DeviceRegistry,
        catalog: DeviceCatalog,
        *,
        timeout: float,
    ) -> None:
        self.env = env
        self.transport = transport
        self.registry = registry
        self.catalog = catalog
        self.timeout = timeout
        #: Device IDs skipped in the most recent scan, with reasons.
        self.skipped: List[tuple[str, str]] = []

    @property
    def device_type(self) -> str:
        """The virtual table this operator scans."""
        return self.catalog.device_type

    def _acquire_row(
        self, device: Device
    ) -> Generator[Any, Any, DeviceTuple]:
        """Build one tuple: static columns free, sensory columns live."""
        values = {}
        static = device.static_attributes()
        for attr in self.catalog.non_sensory_attributes:
            if attr.name not in static:
                raise DeviceError(
                    f"device {device.device_id!r} provides no static "
                    f"attribute {attr.name!r}"
                )
            values[attr.name] = static[attr.name]
        sensory = self.catalog.sensory_attributes
        if sensory:
            connection = yield from self.transport.open(device, self.timeout)
            try:
                for attr in sensory:
                    response = yield from connection.request(Message(
                        kind="read_attribute", device_id=device.device_id,
                        payload={"name": attr.name}), self.timeout)
                    if not response.ok:
                        raise DeviceError(
                            f"reading {attr.name!r} on {device.device_id!r} "
                            f"failed: {response.error}"
                        )
                    values[attr.name] = response.value
            except CommunicationError:
                # The channel failed mid-exchange: never pool it.
                self.transport.discard(connection)
                raise
            finally:
                # Healthy, or the device itself refused the read: the
                # channel is fine, park it (a no-op once discarded).
                self.transport.release(connection)
        return DeviceTuple(
            device_type=self.device_type,
            device_id=device.device_id,
            values=values,
            acquired_at=self.env.now,
        )

    def scan(self) -> Generator[Any, Any, List[DeviceTuple]]:
        """Acquire the table's current rows from all online devices."""
        self.skipped = []
        rows: List[DeviceTuple] = []
        acquisitions = [
            (device, self.env.process(self._acquire_row(device)).defuse())
            for device in self.registry.online_of_type(self.device_type)
        ]
        for device, acquisition in acquisitions:
            try:
                row = yield acquisition
            except (ConnectionTimeoutError, CommunicationError,
                    DeviceError):
                # One retry: radio links lose packets routinely and the
                # MAC layer retransmits; a device that fails twice in a
                # row is skipped as unreachable.
                try:
                    row = yield from self._acquire_row(device)
                except (ConnectionTimeoutError, CommunicationError,
                        DeviceError) as exc:
                    self.skipped.append((device.device_id, str(exc)))
                    continue
            rows.append(row)
        return rows
