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
from typing import Any, Dict, Generator, Optional, Set

from repro.obs.metrics import Counter, Histogram
from repro.obs.spans import Observability
from repro.sim import Environment, Event, SimLock

_token_counter = itertools.count(1)


@dataclass(frozen=True)
class LockToken:
    """Identifies one lock-holding activity (usually one action request)."""

    holder: str
    serial: int = field(default_factory=lambda: next(_token_counter))


class DeviceLockManager:
    """Per-device mutual exclusion for action execution."""

    def __init__(self, env: Environment, obs: Observability) -> None:
        self.env = env
        self.obs = obs
        self._locks: Dict[str, SimLock] = {}
        # Per device: acquisitions, those that queued behind a holder,
        # and forced releases (lease expiry or explicit recovery).
        self._acquisitions, self._contended, self._recoveries = (
            self.obs.registry.family(Counter, f"lock.{name}", "device")
            for name in ("acquisitions", "contended", "recoveries"))
        self._wait = self.obs.family(Histogram, "lock.wait_seconds",
                                     "device")
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
            self._contended[device_id].inc()
        self._acquisitions[device_id].inc()
        waited_from = self.env.now
        yield lock.acquire(token)
        self._wait[device_id].observe(self.env.now - waited_from)
        if lease_seconds is not None:
            def expire(_lease: Event) -> None:
                if lock.holder is token:
                    self.recover(device_id)
            self.env.timeout(lease_seconds).callbacks.append(expire)
        return token

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
            self._recoveries[device_id].inc()
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
