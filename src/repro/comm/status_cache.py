"""TTL-bounded device-status cache: the comm layer's opt-in policy.

Section 4 makes every batch pay a full probe exchange (connect + ping +
status) per candidate before device-selection optimization. When many
continuous queries share one fleet, most candidates were probed moments
ago by the previous batch and their physical status has not changed —
re-probing them buys nothing but round trips.

:class:`DeviceStatusCache` keeps the last probed status per device with
a per-type freshness TTL, so the dispatcher can skip the probe exchange
for recently-seen devices and cost-estimate from the cached snapshot.
Correctness rests entirely on invalidation, because the paper's cost
model is sequence-dependent — "the execution of a photo() action moves
the head of the camera to a new position, which in turn affects the
cost of the subsequent photo() action" (Section 2.3). An entry is
dropped:

* after **any action execution** on the device (the status the cache
  holds is the pre-execution status — provably stale);
* on **probe failure** (the device is unreachable; nothing about it may
  be assumed);
* on **quarantine transitions** of the health breaker (an OPEN or
  probation device must be re-examined, never served from cache);
* when the device **leaves the registry** (whoever joins under its id
  is a different device);
* on **TTL expiry**, bounding how long an untouched device's drift
  (battery, coverage, ambient readings) can skew cost estimation.

TTLs are per device type: a PTZ camera's head position only changes
when Aorta moves it, so its status stays valid long; a phone's carrier
coverage churns on its own, so its snapshot goes stale fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.devices.base import Device
from repro.obs.metrics import Counter
from repro.obs.spans import Observability
from repro.sim import Environment

#: Per-type freshness TTLs, in virtual seconds. Camera status
#: (head position) only changes under Aorta's own actions, so it keeps
#: long; sensor readings drift with the environment; phone coverage is
#: the most volatile of the three.
DEFAULT_STATUS_TTLS: Dict[str, float] = {
    "camera": 10.0,
    "sensor": 3.0,
    "phone": 5.0,
}
#: Freshness TTL of a device type with no entry of its own.
STATUS_TTL_SECONDS = 5.0


@dataclass
class _CacheEntry:
    """One cached status snapshot."""

    status: Dict[str, float]
    stored_at: float
    device_type: str


class DeviceStatusCache:
    """Last-probed physical status per device, with bounded freshness."""

    def __init__(self, env: Environment, *, obs: Observability) -> None:
        self.env = env
        self._entries: Dict[str, _CacheEntry] = {}
        self.obs = obs
        registry = self.obs.registry
        self._hits, self._misses, self._expired, self._stores = (
            registry.family(Counter, f"probe.cache.{name}", "device_type")
            for name in ("hits", "misses", "expired", "stores"))
        self._invalidations = registry.family(
            Counter, "probe.cache.invalidations", "reason")

    def __len__(self) -> int:
        """Entries currently cached (fresh or not yet swept)."""
        return len(self._entries)

    def ttl_for(self, device_type: str) -> float:
        """The freshness window that applies to this device type."""
        return DEFAULT_STATUS_TTLS.get(device_type, STATUS_TTL_SECONDS)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def lookup(self, device: Device) -> Optional[Dict[str, float]]:
        """The device's status if cached and fresh, else ``None``.

        Returns a copy: callers hand statuses into cost estimation and
        schedulers, which must never mutate the cached snapshot.
        """
        entry = self._entries.get(device.device_id)
        if entry is None:
            self._misses[device.device_type].inc()
            return None
        if self.env.now - entry.stored_at > self.ttl_for(entry.device_type):
            del self._entries[device.device_id]
            self._expired[device.device_type].inc()
            self._misses[device.device_type].inc()
            return None
        self._hits[device.device_type].inc()
        return dict(entry.status)

    def store(self, device: Device, status: Dict[str, float]) -> None:
        """Record a freshly probed status snapshot."""
        self._entries[device.device_id] = _CacheEntry(
            status=dict(status),
            stored_at=self.env.now,
            device_type=device.device_type,
        )
        self._stores[device.device_type].inc()

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate(self, device_id: str, reason: str = "") -> None:
        """Drop the device's entry, if one is cached."""
        if self._entries.pop(device_id, None) is None:
            return
        self._invalidations[reason if reason else "unspecified"].inc()

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()
