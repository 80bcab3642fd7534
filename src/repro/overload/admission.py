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
    function of the (now, take) call sequence — identical on the
    virtual and realtime backends.
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
    """Windowed fleet-capacity accounting, shareable across shards.

    Commitments are keyed by window index (``now // CAPACITY_HORIZON``)
    instead of a single "current window" cursor, so the ledger
    tolerates reads at non-monotonic times: shards of a fleet advance
    their clocks independently (a lockstep round steps them one after
    another), and a shard sampling window *k* must not wipe the
    commitments another shard just charged to window *k+1*. For a
    single engine on one monotonic clock the arithmetic is identical to
    the pre-ledger cursor implementation.
    """

    def __init__(self, fleet_size: Callable[[], int]) -> None:
        self._fleet_size = fleet_size
        #: Service-seconds committed, keyed by capacity-window index.
        self._committed: Dict[int, float] = {}

    @staticmethod
    def _window(now: float) -> int:
        return int(now // CAPACITY_HORIZON)

    def available(self, now: float) -> float:
        """Uncommitted device-seconds in ``now``'s capacity window."""
        budget = self._fleet_size() * CAPACITY_HORIZON * UTILIZATION_CAP
        return budget - self._committed.get(self._window(now), 0.0)

    def commit(self, now: float, seconds: float) -> None:
        """Charge ``seconds`` of admitted work to ``now``'s window."""
        window = self._window(now)
        self._committed[window] = self._committed.get(window, 0.0) + seconds


class AdmissionController:
    """The two admission gates every offered request passes."""

    def __init__(self, policy: OverloadPolicy,
                 fleet_size: Callable[[], int],
                 capacity: Optional[CapacityLedger] = None) -> None:
        #: The capacity ledger this controller charges. Per-controller
        #: by default; a sharded fleet replaces it with one shared
        #: ledger so every shard's admissions draw from the same
        #: fleet-wide budget.
        self.capacity = capacity if capacity is not None \
            else CapacityLedger(fleet_size)
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
