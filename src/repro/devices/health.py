"""Per-device health tracking: a circuit breaker over probe/action outcomes.

Pervasive devices "are intrinsically unreliable" (Section 4), and a
flapping device is worse than a dead one: every batch re-probes it,
re-trusts it, assigns it work, and watches the work fail. The health
tracker quarantines such devices with a standard circuit breaker:

* **CLOSED** — healthy; failures are counted, successes reset the count.
* **OPEN** — quarantined after ``failure_threshold`` consecutive
  failures; the device is excluded from candidate sets (not even
  probed) for a backoff window that doubles on each relapse.
* **HALF_OPEN** — the window expired; the device is readmitted on
  probation and the next probe decides: success closes the breaker,
  failure re-opens it with a longer window.

The tracker is passive — it never schedules simulation events; state
transitions happen lazily when the dispatcher asks whether a device may
be a candidate. That keeps it free when unused and deterministic always.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.errors import DeviceError
from repro.obs.metrics import Counter, Histogram
from repro.obs.spans import Observability
from repro.sim import Environment


class BreakerState(enum.Enum):
    """Circuit-breaker state of one device."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class HealthPolicy:
    """Tunables of the per-device circuit breaker."""

    #: Consecutive failures (probe or action) that open the breaker.
    failure_threshold: int = 3
    #: First quarantine window, in virtual seconds.
    quarantine_seconds: float = 30.0
    #: Window multiplier on each relapse (failure while on probation).
    backoff_factor: float = 2.0
    #: Ceiling on the quarantine window.
    quarantine_max: float = 300.0

    def __post_init__(self) -> None:
        # A count of failures: at NaN the breaker could never open.
        if not (isinstance(self.failure_threshold, int)
                and self.failure_threshold >= 1):
            raise DeviceError(
                f"failure_threshold must be an integer >= 1, got "
                f"{self.failure_threshold!r}")
        # Written so that NaN fails too: every comparison with NaN is
        # False.
        if not (self.quarantine_seconds > 0 and self.quarantine_max > 0):
            raise DeviceError("quarantine windows must be positive")
        if not self.backoff_factor >= 1.0:
            raise DeviceError("backoff_factor must be >= 1")


@dataclass
class _DeviceHealth:
    """Mutable breaker bookkeeping for one device."""

    state: BreakerState = BreakerState.CLOSED
    consecutive_failures: int = 0
    #: Virtual time the current quarantine window expires (OPEN only).
    open_until: float = 0.0
    #: Current window length; grows by ``backoff_factor`` per relapse.
    window: float = 0.0
    #: When the device first entered the current quarantine episode,
    #: for time-to-recovery accounting.
    quarantined_at: float = 0.0


class DeviceHealthTracker:
    """Circuit breakers for every device the engine has observed."""

    def __init__(
        self,
        env: Environment,
        policy: HealthPolicy,
        *,
        obs: Observability,
    ) -> None:
        self.env = env
        self.policy = policy
        self.obs = obs
        registry = self.obs.registry
        self._quarantines, self._readmissions, self._probations = (
            registry.family(Counter, f"health.{name}", "device")
            for name in ("quarantines", "readmissions", "probations"))
        # Always recorded: statistics() reports the mean recovery time.
        self._recovery_seconds = registry.family(
            Histogram, "health.recovery_seconds", "device")
        self._devices: Dict[str, _DeviceHealth] = {}
        #: Called on every breaker transition with (device_id, new
        #: state). The engine hooks this to drop pooled
        #: connections and cached statuses of devices entering or
        #: leaving quarantine — their last-known state is untrustworthy.
        self.transition_listeners: List[
            Callable[[str, BreakerState], None]] = []

    def _entry(self, device_id: str) -> _DeviceHealth:
        if device_id not in self._devices:
            self._devices[device_id] = _DeviceHealth()
        return self._devices[device_id]

    def _trace(self, kind: str, **fields: object) -> None:
        self.obs.tracer.record(self.env.now, kind, **fields)

    def _notify(self, device_id: str, state: BreakerState) -> None:
        for listener in self.transition_listeners:
            listener(device_id, state)

    # ------------------------------------------------------------------
    # Outcome reporting (from the prober and the dispatcher)
    # ------------------------------------------------------------------
    def record_success(self, device_id: str) -> None:
        """A probe answered or an action serviced on this device; on
        probation, the first success readmits it."""
        entry = self._entry(device_id)
        if entry.state is BreakerState.HALF_OPEN:
            recovery = self.env.now - entry.quarantined_at
            entry.state = BreakerState.CLOSED
            entry.consecutive_failures = 0
            entry.window = 0.0
            self._trace("device_readmitted", device=device_id,
                        recovery_seconds=recovery)
            self._readmissions[device_id].inc()
            self._recovery_seconds[device_id].observe(recovery)
            self._notify(device_id, BreakerState.CLOSED)
        else:
            entry.consecutive_failures = 0

    def record_failure(self, device_id: str, reason: str = "") -> None:
        """A probe missed or an action failed on this device."""
        entry = self._entry(device_id)
        if entry.state is BreakerState.HALF_OPEN:
            # Relapse on probation: back to quarantine, longer window.
            self._open(device_id, entry, reason, relapse=True)
            return
        entry.consecutive_failures += 1
        if entry.state is BreakerState.CLOSED \
                and entry.consecutive_failures \
                >= self.policy.failure_threshold:
            entry.quarantined_at = self.env.now
            self._open(device_id, entry, reason, relapse=False)

    def _open(self, device_id: str, entry: _DeviceHealth, reason: str,
              *, relapse: bool) -> None:
        if entry.window:
            entry.window = min(entry.window * self.policy.backoff_factor,
                               self.policy.quarantine_max)
        else:
            entry.window = min(self.policy.quarantine_seconds,
                               self.policy.quarantine_max)
        entry.state = BreakerState.OPEN
        entry.open_until = self.env.now + entry.window
        self._trace("device_quarantined", device=device_id,
                    window=entry.window, relapse=relapse, reason=reason)
        self._quarantines[device_id].inc()
        self._notify(device_id, BreakerState.OPEN)

    # ------------------------------------------------------------------
    # Candidate gating (from the dispatcher)
    # ------------------------------------------------------------------
    def allow_candidate(self, device_id: str) -> bool:
        """Whether the device may enter a candidate set right now.

        Lazily transitions OPEN breakers whose window has expired to
        HALF_OPEN — the caller's next probe is the probation probe.
        """
        entry = self._devices.get(device_id)
        if entry is None or entry.state is BreakerState.CLOSED:
            return True
        if entry.state is BreakerState.OPEN:
            if self.env.now < entry.open_until:
                return False
            entry.state = BreakerState.HALF_OPEN
            self._trace("device_probation", device=device_id)
            self._probations[device_id].inc()
            self._notify(device_id, BreakerState.HALF_OPEN)
        return True

    # ------------------------------------------------------------------
    # Read-only observability
    # ------------------------------------------------------------------
    def state_of(self, device_id: str) -> BreakerState:
        """The breaker state of one device (CLOSED if never seen)."""
        entry = self._devices.get(device_id)
        return entry.state if entry is not None else BreakerState.CLOSED

    def quarantined_ids(self) -> List[str]:
        """Devices whose breaker is OPEN with an unexpired window."""
        return sorted(
            device_id for device_id, entry in self._devices.items()
            if entry.state is BreakerState.OPEN
            and self.env.now < entry.open_until)
