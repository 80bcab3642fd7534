"""Scan operators over virtual device tables (paper Section 3.2).

"The communication layer abstracts each type of devices into a virtual
relational table. It then provides special 'scan operators' as simple
interfaces for the query engine to acquire device data tuples from
these virtual tables." Sensory attributes are acquired live over the
network; non-sensory attributes come from static catalog data, read
off each device once per static epoch.

The scan is acquisitional: it reads only the sensory columns in
:attr:`ScanOperator.columns` (the continuous executor narrows them to
what its AQs reference), all of them in one ``read_attributes``
exchange per device, and retries a failed row at once within the row's
own acquisition, so retries overlap each other and the rest of the scan.
All rows start together in one kernel fan-out, which costs the kernel
two events whatever the number of devices.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Tuple

from repro.errors import DeviceError
from repro.devices.base import Device, static_epoch
from repro.devices.registry import DeviceRegistry
from repro.comm.tuples import DeviceTuple
from repro.network.message import Message
from repro.network.transport import Transport
from repro.profiles.schema import DeviceCatalog
from repro.sim import Environment


class ScanOperator:
    """Produces the current rows of one virtual device table.

    Each scan generates tuples on-the-fly: static columns from the
    device registry, the projected sensory columns via one live network
    read per device. Devices that fail to answer contribute no row (they
    are unreachable, so the query engine must not see stale data for
    them) — the scan records them in :attr:`skipped` for observability.
    """

    def __init__(
        self,
        env: Environment,
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
        #: Sensory columns a row acquires, in catalog order: the whole
        #: row unless the continuous executor narrows it. A row carries
        #: exactly the columns it was read with.
        self.columns: Tuple[str, ...] = tuple(
            attr.name for attr in catalog.sensory_attributes)
        #: Device IDs skipped in the most recent scan, with reasons.
        self.skipped: List[tuple[str, str]] = []
        #: Device ID -> its static columns, valid at ``_static_epoch``.
        self._static: Dict[str, Dict[str, Any]] = {}
        #: Device ID -> its ``read_attributes`` message for
        #: ``_read_columns``, valid at ``_static_epoch``: a message is
        #: immutable, so each is built once.
        self._reads: Dict[str, Message] = {}
        self._read_columns: Tuple[str, ...] = ()
        self._static_epoch = -1
        metrics = transport.obs.registry
        self._rows = metrics.counter(
            "comm.scan.rows", device_type=catalog.device_type)
        self._rows_skipped = metrics.counter(
            "comm.scan.rows_skipped", device_type=catalog.device_type)

    @property
    def device_type(self) -> str:
        """The virtual table this operator scans."""
        return self.catalog.device_type

    def _static_columns(self, device: Device) -> Dict[str, Any]:
        """The device's non-sensory columns, read once per static epoch
        (DESIGN.md decision 35)."""
        epoch = static_epoch()
        if epoch != self._static_epoch:
            self._static_epoch = epoch
            self._static = {}
            self._reads = {}
        row = self._static.get(device.device_id)
        if row is None:
            static = device.static_attributes()
            row = {}
            for attr in self.catalog.non_sensory_attributes:
                if attr.name not in static:
                    raise DeviceError(
                        f"device {device.device_id!r} provides no static "
                        f"attribute {attr.name!r}"
                    )
                row[attr.name] = static[attr.name]
            self._static[device.device_id] = row
        return row

    def _read_message(self, device: Device,
                      columns: Tuple[str, ...]) -> Message:
        """The device's ``read_attributes`` message for ``columns``,
        built once per (device, columns) and static epoch."""
        if columns != self._read_columns:
            self._read_columns = columns
            self._reads = {}
        message = self._reads.get(device.device_id)
        if message is None:
            message = self._reads[device.device_id] = Message(
                kind="read_attributes", device_id=device.device_id,
                payload={"names": columns})
        return message

    def _acquire_row(
        self, device: Device, columns: Tuple[str, ...]
    ) -> Generator[Any, Any, DeviceTuple]:
        """Build one tuple: static columns free, sensory columns live.

        One retry: radio links lose packets routinely and the MAC layer
        retransmits; a device that fails twice in a row is skipped as
        unreachable.
        """
        values = dict(self._static_columns(device))
        if columns:
            message = self._read_message(device, columns)
            read = yield from self.transport.exchange(device, [message],
                                                      self.timeout)
            if read.failed:
                read = yield from self.transport.exchange(device, [message],
                                                          self.timeout)
            if read.failed:
                reason = read.error
                if read.responses:
                    # The device answered, refusing the read.
                    reason = (f"reading {list(columns)} on "
                              f"{device.device_id!r} failed: "
                              f"{read.responses[0].error}")
                raise DeviceError(reason)
            values.update(read.responses[0].value)
        return DeviceTuple(self.catalog.device_type, device.device_id,
                           values, self.env.now)

    def scan(self) -> Generator[Any, Any, List[DeviceTuple]]:
        """Acquire the table's current rows from all online devices.

        Every row's acquisition is a member of one fan-out, all started
        at once; rows are collected in device order. A row that raised
        :class:`DeviceError` is skipped; any other error is raised here
        once every row has ended. With no online device the scan waits
        on nothing.
        """
        self.skipped = []
        columns = self.columns
        rows: List[DeviceTuple] = []
        devices = self.registry.online_of_type(self.device_type)
        if devices:
            acquired = yield self.env.fan_out(
                [self._acquire_row(device, columns) for device in devices])
            for device, row in zip(devices, acquired):
                if isinstance(row, DeviceError):
                    self.skipped.append((device.device_id, str(row)))
                elif isinstance(row, BaseException):
                    raise row
                else:
                    rows.append(row)
        self._rows.inc(len(rows))
        self._rows_skipped.inc(len(self.skipped))
        return rows
