"""Admission control: token buckets and the fleet-capacity window.

Two independent gates, both deterministic on the virtual clock:

* **Rate limits** — one lazily refilled token bucket per priority tier
  (and a separate set for AQ registrations, so standing queries are
  first-class admission units, not just the requests they emit).
* **Capacity** — each admitted request commits its cost-oracle service
  estimate against the fleet's available device-seconds for the
  current accounting window (``fleet_size * horizon * utilization_cap``);
  once the window is fully committed, further requests are refused
  until the next window opens.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.overload.policy import OverloadPolicy, TierRate

#: Machine-readable rejection reasons (also used as trace/metric tags).
REASON_RATE = "admission-rate"
REASON_CAPACITY = "admission-capacity"


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

    Commitments are keyed by window index (``now // horizon``) instead
    of a single "current window" cursor, so the ledger tolerates reads
    at non-monotonic times: shards of a fleet advance their clocks
    independently (a lockstep round steps them one after another), and
    a shard sampling window *k* must not wipe the commitments another
    shard just charged to window *k+1*. For a single engine on one
    monotonic clock the arithmetic is identical to the pre-ledger
    cursor implementation.
    """

    def __init__(self, policy: OverloadPolicy,
                 fleet_size: Callable[[], int]) -> None:
        self.policy = policy
        self._fleet_size = fleet_size
        #: Service-seconds committed, keyed by capacity-window index.
        self._committed: Dict[int, float] = {}

    def _window(self, now: float) -> int:
        return int(now // self.policy.capacity_horizon)

    def available(self, now: float) -> float:
        """Uncommitted device-seconds in ``now``'s capacity window."""
        budget = (self._fleet_size() * self.policy.capacity_horizon
                  * self.policy.utilization_cap)
        return budget - self._committed.get(self._window(now), 0.0)

    def commit(self, now: float, seconds: float) -> None:
        """Charge ``seconds`` of admitted work to ``now``'s window."""
        window = self._window(now)
        self._committed[window] = self._committed.get(window, 0.0) + seconds


class AdmissionController:
    """The two admission gates, shared by registration and ingestion."""

    def __init__(self, policy: OverloadPolicy,
                 fleet_size: Callable[[], int],
                 capacity: Optional[CapacityLedger] = None) -> None:
        self.policy = policy
        #: The capacity ledger this controller charges. Per-controller
        #: by default; a sharded fleet replaces it with one shared
        #: ledger so every shard's admissions draw from the same
        #: fleet-wide budget.
        self.capacity = capacity if capacity is not None \
            else CapacityLedger(policy, fleet_size)
        self._request_buckets = self._build_buckets(policy.tier_rates)
        self._registration_buckets = self._build_buckets(
            policy.registration_rates)
        self.admitted_queries = 0
        self.rejected_queries = 0
        self.admitted_requests = 0
        self.rejected_requests = 0

    @staticmethod
    def _build_buckets(
        rates: Optional[Dict[int, TierRate]],
    ) -> Dict[int, TokenBucket]:
        if not rates:
            return {}
        return {tier: TokenBucket(spec.rate, spec.burst)
                for tier, spec in sorted(rates.items())}

    # ------------------------------------------------------------------
    # The gates
    # ------------------------------------------------------------------
    def admit_query(self, priority: int, now: float) -> Optional[str]:
        """Gate one AQ registration; ``None`` = admitted, else reason."""
        bucket = self._registration_buckets.get(priority)
        if bucket is not None and not bucket.try_take(now):
            self.rejected_queries += 1
            return REASON_RATE
        self.admitted_queries += 1
        return None

    def admit_request(self, priority: int, estimated_seconds: float,
                      now: float) -> Optional[str]:
        """Gate one action request; ``None`` = admitted, else reason.

        Admitting commits ``estimated_seconds`` against the current
        capacity window. Tiers at or above ``capacity_protect_tier``
        bypass the capacity gate (their load is still accounted, so
        lower tiers see it).
        """
        bucket = self._request_buckets.get(priority)
        if bucket is not None and not bucket.try_take(now):
            self.rejected_requests += 1
            return REASON_RATE
        available = self.capacity.available(now)
        if (priority < self.policy.capacity_protect_tier
                and estimated_seconds > available):
            self.rejected_requests += 1
            return REASON_CAPACITY
        self.capacity.commit(now, estimated_seconds)
        self.admitted_requests += 1
        return None
