"""The device registry: the system's live view of the device network.

Devices "may join, move around, or leave the network dynamically"
(Section 4); the registry tracks current membership and lets the
communication layer enumerate devices per type for the virtual tables.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List

from repro.errors import DeviceError, RegistrationError
from repro.devices.base import Device, bump_static_epoch

#: Signature of membership-change listeners: (event, device).
MembershipListener = Callable[[str, Device], None]


class DeviceRegistry:
    """Registry of all devices known to the Aorta system."""

    def __init__(self) -> None:
        self._devices: Dict[str, Device] = {}
        self._listeners: List[MembershipListener] = []

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add(self, device: Device) -> None:
        """Register a device that joined the network."""
        if device.device_id in self._devices:
            raise RegistrationError(
                f"device {device.device_id!r} is already registered"
            )
        self._devices[device.device_id] = device
        bump_static_epoch()
        self._notify("join", device)

    def remove(self, device_id: str) -> Device:
        """Unregister a device that left the network; returns it."""
        device = self.get(device_id)
        del self._devices[device_id]
        bump_static_epoch()
        self._notify("leave", device)
        return device

    def get(self, device_id: str) -> Device:
        """Look up a device, raising on unknown IDs."""
        try:
            return self._devices[device_id]
        except KeyError:
            raise DeviceError(f"unknown device {device_id!r}") from None

    def __contains__(self, device_id: str) -> bool:
        return device_id in self._devices

    def __len__(self) -> int:
        return len(self._devices)

    def __iter__(self) -> Iterator[Device]:
        return iter(list(self._devices.values()))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def of_type(self, device_type: str) -> List[Device]:
        """All registered devices of one type, registration order."""
        return [d for d in self._devices.values()
                if d.device_type == device_type]

    def online_of_type(self, device_type: str) -> List[Device]:
        """Only the currently reachable devices of one type."""
        return [d for d in self.of_type(device_type) if d.online]

    # ------------------------------------------------------------------
    # Listeners
    # ------------------------------------------------------------------
    def subscribe(self, listener: MembershipListener) -> None:
        """Register a callback for join/leave events."""
        self._listeners.append(listener)

    def _notify(self, event: str, device: Device) -> None:
        for listener in self._listeners:
            listener(event, device)
