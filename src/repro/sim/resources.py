"""The synchronization primitive for simulation processes.

:class:`SimLock` is a *runtime-time* primitive: waiting for a contended
lock costs runtime seconds (virtual, or paced wall time under a
positive ``time_scale``), never a blocked thread. The Aorta device lock
manager (:mod:`repro.sync.locks`) builds on it.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.base import Environment


class SimLock:
    """A FIFO mutual-exclusion lock for simulation processes.

    ``acquire()`` returns an event that triggers when the caller holds
    the lock; ``release()`` hands the lock to the next waiter in FIFO
    order. Ownership is tracked by an opaque token so misuse (releasing
    a lock you do not hold) is detected.
    """

    def __init__(self, env: "Environment", name: str = "lock") -> None:
        self.env = env
        self.name = name
        self._holder: Optional[object] = None
        self._waiters: Deque[tuple[Event, object]] = deque()

    @property
    def locked(self) -> bool:
        """Whether some process currently holds the lock."""
        return self._holder is not None

    @property
    def holder(self) -> Optional[object]:
        """The token currently holding the lock, or None."""
        return self._holder

    @property
    def queue_length(self) -> int:
        """Number of processes waiting to acquire."""
        return len(self._waiters)

    def acquire(self, token: object) -> Event:
        """Request the lock on behalf of ``token``.

        The returned event succeeds (with the token as value) once the
        lock is held. Re-entrant acquisition is rejected: a device must
        never run two actions at once (Section 4 of the paper).
        """
        if token is None:
            raise SimulationError("lock token must not be None")
        if self._holder is token:
            raise SimulationError(f"{self.name}: re-entrant acquire by {token!r}")
        grant = self.env.event()
        if self._holder is None and not self._waiters:
            self._holder = token
            grant.succeed(token)
        else:
            self._waiters.append((grant, token))
        return grant

    def release(self, token: object) -> None:
        """Release the lock and wake the next FIFO waiter, if any."""
        if self._holder is not token:
            raise SimulationError(
                f"{self.name}: release by {token!r} which is not the holder"
            )
        self.force_release()

    def force_release(self) -> Optional[object]:
        """Evict the current holder and wake the next FIFO waiter.

        Lease recovery for a holder that died without releasing (a
        crashed device's executor, Section 4's unreliable endpoints):
        waiters proceed in order instead of deadlocking. Returns the
        evicted token, or None if the lock was free.
        """
        evicted = self._holder
        self._holder = None
        if self._waiters:
            grant, next_token = self._waiters.popleft()
            self._holder = next_token
            grant.succeed(next_token)
        return evicted

    def cancel(self, token: object) -> bool:
        """Withdraw a queued acquire for ``token``. Returns True if found."""
        for i, (grant, waiting_token) in enumerate(self._waiters):
            if waiting_token is token:
                del self._waiters[i]
                return True
        return False

