"""The device locking mechanism.

"When a device has been selected to execute an action, the optimizer
will lock it until it finishes executing the action ... Subsequent
actions on this device cannot start before the device is unlocked."
(Section 4)

Locks are per-device and FIFO, built on the simulation-time
:class:`~repro.sim.resources.SimLock` so waiting for a busy device costs
virtual time — which is exactly how queueing delay enters the makespan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Generator, Optional, Set

from repro.obs.spans import NULL_OBS
from repro.runtime import Runtime
from repro.sim import SimLock

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.spans import Observability

_token_counter = itertools.count(1)


@dataclass(frozen=True)
class LockToken:
    """Identifies one lock-holding activity (usually one action request)."""

    holder: str
    serial: int = field(default_factory=lambda: next(_token_counter))


class DeviceLockManager:
    """Per-device mutual exclusion for action execution."""

    def __init__(self, env: Runtime,
                 obs: Optional["Observability"] = None) -> None:
        self.env = env
        self.obs = obs if obs is not None else NULL_OBS
        self._locks: Dict[str, SimLock] = {}
        #: Total lock acquisitions, for utilization reporting.
        self.acquisitions = 0
        #: Total acquisitions that had to queue behind a holder.
        self.contended_acquisitions = 0
        #: Total forced releases (lease expiry or explicit recovery).
        self.recoveries = 0
        #: Tokens evicted by recovery whose owner has not released yet;
        #: their eventual release() is a silent no-op, not an error.
        self._recovered_tokens: Set[LockToken] = set()

    def _lock_for(self, device_id: str) -> SimLock:
        if device_id not in self._locks:
            self._locks[device_id] = SimLock(self.env, name=f"lock:{device_id}")
        return self._locks[device_id]

    def acquire(
        self, device_id: str, token: LockToken,
        lease_seconds: Optional[float] = None,
    ) -> Generator[Any, Any, LockToken]:
        """Lock ``device_id`` on behalf of ``token``; waits if busy.

        With ``lease_seconds``, the grant is a lease: if the token still
        holds the lock that long after acquisition — its executor died
        mid-action on a crashed device — the lock is forcibly recovered
        so FIFO waiters proceed instead of deadlocking.
        """
        lock = self._lock_for(device_id)
        if lock.locked:
            self.contended_acquisitions += 1
            self.obs.inc("lock.contended", device=device_id)
        self.acquisitions += 1
        self.obs.inc("lock.acquisitions", device=device_id)
        waited_from = self.env.now
        yield lock.acquire(token)
        self.obs.observe("lock.wait_seconds", self.env.now - waited_from,
                         device=device_id)
        if lease_seconds is not None:
            self.env.process(self._lease_watchdog(device_id, token,
                                                  lease_seconds))
        return token

    def _lease_watchdog(
        self, device_id: str, token: LockToken, lease_seconds: float
    ) -> Generator[Any, Any, None]:
        yield self.env.timeout(lease_seconds)
        if self._lock_for(device_id).holder is token:
            self.recover(device_id)

    def release(self, device_id: str, token: LockToken) -> None:
        """Unlock ``device_id``; the next FIFO waiter proceeds.

        Releasing a token whose lock was already recovered (lease
        expiry) is a no-op: the executor outlived its lease but did
        eventually finish, and the lock has moved on without it.
        """
        if token in self._recovered_tokens:
            self._recovered_tokens.discard(token)
            return
        self._lock_for(device_id).release(token)

    def recover(self, device_id: str) -> Optional[LockToken]:
        """Forcibly release a dead holder's lock; waiters proceed FIFO.

        The fault-tolerance path for a device whose executor crashed
        while holding the lock: rather than deadlocking every queued
        action, the lease recovery evicts the holder and hands the lock
        to the next waiter. Returns the evicted token (None if the lock
        was free).
        """
        evicted = self._lock_for(device_id).force_release()
        if evicted is not None:
            self.recoveries += 1
            self.obs.inc("lock.recoveries", device=device_id)
            self._recovered_tokens.add(evicted)
        return evicted

    def cancel(self, device_id: str, token: LockToken) -> bool:
        """Withdraw a queued acquire (e.g. the request was rescheduled)."""
        return self._lock_for(device_id).cancel(token)

    def is_locked(self, device_id: str) -> bool:
        """Whether the device is currently executing an action."""
        return self._lock_for(device_id).locked

    def queue_length(self, device_id: str) -> int:
        """Number of actions waiting for this device."""
        return self._lock_for(device_id).queue_length
