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
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

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
from repro.runtime import Runtime


@dataclass
class DeviceTypeRegistration:
    """Everything the layer knows about one device type."""

    catalog: DeviceCatalog
    cost_table: CostTable
    probe_timeout: float

    def __post_init__(self) -> None:
        if self.catalog.device_type != self.cost_table.device_type:
            raise ProfileError(
                f"catalog is for {self.catalog.device_type!r} but cost "
                f"table is for {self.cost_table.device_type!r}"
            )
        if self.probe_timeout <= 0:
            raise ProfileError("probe timeout must be positive")

    @property
    def device_type(self) -> str:
        return self.catalog.device_type


class CommunicationLayer:
    """Uniform access to a network of heterogeneous devices."""

    def __init__(
        self,
        env: Runtime,
        *,
        registry: Optional[DeviceRegistry] = None,
        links: Optional[Dict[str, LinkModel]] = None,
        rng: Optional[random.Random] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.env = env
        self.registry = registry or DeviceRegistry()
        #: The transport, its pool and the prober count in ``obs``'s
        #: registry (a disabled one of their own when built bare).
        self.transport = Transport(env, links=links, rng=rng, obs=obs)
        self._types: Dict[str, DeviceTypeRegistration] = {}
        self.prober = Prober(env, self.transport, timeouts={})

    # ------------------------------------------------------------------
    # Device-type registration (profiles)
    # ------------------------------------------------------------------
    def register_device_type(
        self,
        catalog: DeviceCatalog,
        cost_table: CostTable,
        *,
        probe_timeout: Optional[float] = None,
    ) -> DeviceTypeRegistration:
        """Register a device type's profiles with the system."""
        device_type = catalog.device_type
        if device_type in self._types:
            raise RegistrationError(
                f"device type {device_type!r} is already registered"
            )
        timeout = probe_timeout if probe_timeout is not None else (
            DEFAULT_TIMEOUTS.get(device_type, FALLBACK_TIMEOUT))
        registration = DeviceTypeRegistration(
            catalog=catalog, cost_table=cost_table, probe_timeout=timeout)
        self._types[device_type] = registration
        self.prober.timeouts[device_type] = timeout
        return registration

    def registration(self, device_type: str) -> DeviceTypeRegistration:
        """Profiles of one device type, raising on unknown types."""
        try:
            return self._types[device_type]
        except KeyError:
            raise ProfileError(
                f"device type {device_type!r} is not registered"
            ) from None

    def catalog(self, device_type: str) -> DeviceCatalog:
        """The device catalog (= virtual-table schema) of a type."""
        return self.registration(device_type).catalog

    def cost_table(self, device_type: str) -> CostTable:
        """The atomic-operation cost table of a type."""
        return self.registration(device_type).cost_table

    def registered_types(self) -> List[str]:
        """Sorted names of all registered device types."""
        return sorted(self._types)

    # ------------------------------------------------------------------
    # Device membership
    # ------------------------------------------------------------------
    def add_device(self, device: Device) -> None:
        """Admit a device whose type has been registered."""
        if device.device_type not in self._types:
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
        registration = self.registration(device_type)
        return ScanOperator(
            self.env, self.transport, self.registry, registration.catalog,
            timeout=registration.probe_timeout)

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def probe(self, device: Device) -> Generator[Any, Any, ProbeResult]:
        """Probe one device (availability + physical status)."""
        return (yield from self.prober.probe(device))
