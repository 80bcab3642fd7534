"""Admission control: token buckets and the fleet-capacity window.

Two independent gates, both deterministic on the virtual clock:

* **Rate limits** — one lazily refilled token bucket per priority tier.
* **Capacity** — each admitted request commits its cost-oracle service
  estimate against the fleet's available device-seconds for the
  current accounting window
  (``fleet_size * CAPACITY_HORIZON * UTILIZATION_CAP``); once the
  window is fully committed, further requests are refused until the
  next window opens.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.actions.request import REASON_CAPACITY, REASON_RATE
from repro.overload.policy import OverloadPolicy

#: Length of one capacity-accounting window, in virtual seconds.
CAPACITY_HORIZON = 10.0
#: Fraction of fleet device-seconds admission may commit per window;
#: the remainder absorbs estimate error and retries.
UTILIZATION_CAP = 0.9
#: Tiers at or above this value bypass the capacity gate (rate limits,
#: when configured, still apply).
CAPACITY_PROTECT_TIER = 3


class TokenBucket:
    """A virtual-time token bucket, refilled lazily on each take.

    No background process: the refill is computed from the elapsed
    virtual time at the moment of the take, so behaviour is a pure
    function of the (now, take) call sequence — identical paced and
    unpaced.
    """

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._updated = 0.0

    def try_take(self, now: float) -> bool:
        """Take one token if available; refill for elapsed time first."""
        if now > self._updated:
            self._tokens = min(self.burst,
                               self._tokens + (now - self._updated)
                               * self.rate)
            self._updated = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


class CapacityLedger:
    """Windowed capacity accounting: one engine's view of the fleet.

    Commitments are keyed by window index (``now // CAPACITY_HORIZON``)
    instead of a single "current window" cursor, so a window's total
    does not depend on the order commits arrive in. For a single engine
    on one monotonic clock the arithmetic is identical to the
    pre-ledger cursor implementation.

    A plain engine's ledger is the whole truth. A shard of a
    ledger-coupled fleet admits against a *view*: the fleet's committed
    seconds as of the last barrier :meth:`sync` and its device count as
    of the last sync, plus its own commits since the last barrier
    (:meth:`unsynced`), which it ships with each round's result for the
    coordinator to :meth:`fold` into the fleet's ledger (DESIGN.md
    decision 30).
    """

    def __init__(self, fleet_size: Callable[[], int]) -> None:
        self._fleet_size = fleet_size
        #: The fleet's service-seconds as of the last barrier sync (or
        #: fold), keyed by capacity-window index.
        self._synced: Dict[int, float] = {}
        #: This ledger's own commits since the last barrier sync.
        self._own: Dict[int, float] = {}

    @staticmethod
    def _window(now: float) -> int:
        return int(now // CAPACITY_HORIZON)

    def available(self, now: float) -> float:
        """Uncommitted device-seconds in ``now``'s capacity window."""
        window = self._window(now)
        budget = self._fleet_size() * CAPACITY_HORIZON * UTILIZATION_CAP
        return budget - (self._synced.get(window, 0.0)
                         + self._own.get(window, 0.0))

    def commit(self, now: float, seconds: float) -> None:
        """Charge ``seconds`` of admitted work to ``now``'s window."""
        window = self._window(now)
        self._own[window] = self._own.get(window, 0.0) + seconds

    def committed(self) -> Dict[int, float]:
        """Committed seconds by window: the synced view plus own commits."""
        view = dict(self._synced)
        for window, seconds in self._own.items():
            view[window] = view.get(window, 0.0) + seconds
        return view

    def unsynced(self) -> Dict[int, float]:
        """This ledger's own commits since the last barrier sync."""
        return dict(self._own)

    def fold(self, commits: Dict[int, float]) -> None:
        """Add another ledger's :meth:`unsynced` commits to this view."""
        for window, seconds in commits.items():
            self._synced[window] = self._synced.get(window, 0.0) + seconds

    def sync(self, fleet_size: int,
             committed: Optional[Dict[int, float]] = None) -> None:
        """Adopt the fleet's device count and, at a barrier, commitments.

        A barrier's ``committed`` has this ledger's :meth:`unsynced`
        commits folded in, so they leave the own view; between barriers
        (a device joined) the view keeps them for the next round.
        """
        self._fleet_size = lambda: fleet_size
        if committed is not None:
            self._synced = dict(committed)
            self._own = {}


class AdmissionController:
    """The two admission gates every offered request passes."""

    def __init__(self, policy: OverloadPolicy,
                 fleet_size: Callable[[], int]) -> None:
        #: The capacity ledger this controller charges; on a shard of a
        #: ledger-coupled fleet, the fleet syncs it at every barrier.
        self.capacity = CapacityLedger(fleet_size)
        self._buckets = {tier: TokenBucket(spec.rate, spec.burst)
                         for tier, spec in sorted(
                             (policy.tier_rates or {}).items())}

    def admit_request(self, priority: int, estimated_seconds: float,
                      now: float) -> Optional[str]:
        """Gate one action request; ``None`` = admitted, else reason.

        Admitting commits ``estimated_seconds`` against the current
        capacity window. Tiers at or above ``CAPACITY_PROTECT_TIER``
        bypass the capacity gate (their load is still accounted, so
        lower tiers see it).
        """
        bucket = self._buckets.get(priority)
        if bucket is not None and not bucket.try_take(now):
            return REASON_RATE
        available = self.capacity.available(now)
        if (priority < CAPACITY_PROTECT_TIER
                and estimated_seconds > available):
            return REASON_CAPACITY
        self.capacity.commit(now, estimated_seconds)
        return None
