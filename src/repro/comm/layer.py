"""The communication layer facade.

Ties together the registry of devices, the per-type profiles (catalog +
cost table + probe timeout), the transport, scan operators and the
prober. "This layer ensures that the Aorta system, not the individual
applications, is responsible for monitoring and tuning the current
network infrastructure and the physical status of the devices."
(Section 2.1)
"""

from __future__ import annotations

import random
from typing import Any, Dict, Generator, Optional

from repro.errors import ProfileError, RegistrationError
from repro.devices.base import Device
from repro.devices.registry import DeviceRegistry
from repro.comm.probe import (
    DEFAULT_TIMEOUTS,
    FALLBACK_TIMEOUT,
    Prober,
    ProbeResult,
)
from repro.comm.scan import ScanOperator
from repro.network.link import LinkModel
from repro.network.transport import Transport
from repro.obs.spans import Observability
from repro.profiles.cost_table import CostTable
from repro.profiles.schema import DeviceCatalog
from repro.sim import Environment


class CommunicationLayer:
    """Uniform access to a network of heterogeneous devices."""

    def __init__(
        self,
        env: Environment,
        *,
        links: Optional[Dict[str, LinkModel]] = None,
        rng: random.Random,
        obs: Observability,
    ) -> None:
        self.env = env
        self.registry = DeviceRegistry()
        #: The transport, its pool and the prober count in ``obs``'s registry.
        self.transport = Transport(env, links=links, rng=rng, obs=obs)
        #: A device type's profiles, one dict per kind, keyed by type:
        #: the only copy. The schema catalog, the cost model and the
        #: prober are handed these dicts and read them in place, so a
        #: type registered at any time is visible to all of them.
        self.catalogs: Dict[str, DeviceCatalog] = {}
        self.cost_tables: Dict[str, CostTable] = {}
        self.probe_timeouts: Dict[str, float] = {}
        self.prober = Prober(env, self.transport, self.probe_timeouts)

    # ------------------------------------------------------------------
    # Device-type registration (profiles)
    # ------------------------------------------------------------------
    def register_device_type(
        self,
        catalog: DeviceCatalog,
        cost_table: CostTable,
        *,
        probe_timeout: Optional[float] = None,
    ) -> None:
        """Register a device type's profiles with the system.

        One call makes the type queryable (its catalog is a virtual
        table), costable, probe-able and schedulable.
        """
        device_type = catalog.device_type
        if device_type in self.catalogs:
            raise RegistrationError(
                f"device type {device_type!r} is already registered"
            )
        if cost_table.device_type != device_type:
            raise ProfileError(
                f"catalog is for {device_type!r} but cost "
                f"table is for {cost_table.device_type!r}"
            )
        timeout = probe_timeout if probe_timeout is not None else (
            DEFAULT_TIMEOUTS.get(device_type, FALLBACK_TIMEOUT))
        if timeout <= 0:
            raise ProfileError("probe timeout must be positive")
        self.catalogs[device_type] = catalog
        self.cost_tables[device_type] = cost_table
        self.probe_timeouts[device_type] = timeout

    def catalog(self, device_type: str) -> DeviceCatalog:
        """The device catalog (= virtual-table schema) of a type."""
        try:
            return self.catalogs[device_type]
        except KeyError:
            raise ProfileError(
                f"device type {device_type!r} is not registered"
            ) from None

    # ------------------------------------------------------------------
    # Device membership
    # ------------------------------------------------------------------
    def add_device(self, device: Device) -> None:
        """Admit a device whose type has been registered."""
        if device.device_type not in self.catalogs:
            raise RegistrationError(
                f"register device type {device.device_type!r} before "
                f"adding device {device.device_id!r}"
            )
        self.registry.add(device)

    def remove_device(self, device_id: str) -> Device:
        """Remove a device that left the network."""
        return self.registry.remove(device_id)

    # ------------------------------------------------------------------
    # Scan operators
    # ------------------------------------------------------------------
    def scan_operator(self, device_type: str) -> ScanOperator:
        """A scan operator over the type's virtual table."""
        return ScanOperator(
            self.env, self.transport, self.registry, self.catalog(device_type),
            timeout=self.probe_timeouts[device_type])

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def probe(self, device: Device) -> Generator[Any, Any, ProbeResult]:
        """Probe one device (availability + physical status)."""
        return (yield from self.prober.probe(device))
