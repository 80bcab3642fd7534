"""Unit tests for admission control: token buckets and capacity."""

import math

import pytest

from repro.errors import AortaError
from repro.overload import AdmissionController, OverloadPolicy, TierRate, TokenBucket
from repro.overload.admission import (
    CAPACITY_HORIZON,
    REASON_CAPACITY,
    REASON_RATE,
    UTILIZATION_CAP,
)


class TestTokenBucket:
    def test_burst_then_refusal(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)

    def test_lazy_refill_on_virtual_time(self):
        bucket = TokenBucket(rate=2.0, burst=1.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.1)   # only 0.2 tokens back
        assert bucket.try_take(0.6)       # >= 1 token accrued

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        for _ in range(3):
            assert bucket.try_take(100.0)
        assert not bucket.try_take(100.0)

    def test_time_going_backwards_does_not_refund(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.try_take(5.0)
        assert not bucket.try_take(4.0)

    def test_deterministic_given_call_sequence(self):
        def run():
            bucket = TokenBucket(rate=0.5, burst=2.0)
            return [bucket.try_take(t / 4.0) for t in range(40)]
        assert run() == run()


class TestPolicyValidation:
    def test_tier_rate_requires_positive_rate(self):
        with pytest.raises(AortaError, match="rate"):
            TierRate(rate=0.0, burst=1.0)

    def test_tier_rate_requires_burst_at_least_one(self):
        with pytest.raises(AortaError, match="burst"):
            TierRate(rate=1.0, burst=0.5)

    @pytest.mark.parametrize("rate, burst, refused", [
        (math.nan, 2.0, "rate"), (math.inf, 2.0, "rate"),
        (1.0, math.nan, "burst"), (1.0, math.inf, "burst")])
    def test_tier_rate_refuses_nan_and_infinity(self, rate, burst,
                                                refused):
        with pytest.raises(AortaError, match=refused):
            TierRate(rate=rate, burst=burst)

    def test_watermarks_must_hysterese(self):
        with pytest.raises(AortaError, match="strictly below"):
            OverloadPolicy(shed_high_watermark=10, shed_low_watermark=10)

    @pytest.mark.parametrize("limit", [math.nan, 2.5, 256.0, math.inf])
    def test_queue_limit_refuses_a_count_that_is_no_integer(self, limit):
        # At NaN every queue stayed unbounded.
        with pytest.raises(AortaError, match="queue_limit"):
            OverloadPolicy(queue_limit=limit)

    @pytest.mark.parametrize("high", [math.nan, 192.5, 192.0, math.inf])
    def test_high_watermark_refuses_a_count_that_is_no_integer(self, high):
        # At NaN ``pending > watermark`` is False: load was never shed.
        with pytest.raises(AortaError, match="shed watermarks"):
            OverloadPolicy(shed_high_watermark=high)

    @pytest.mark.parametrize("low", [math.nan, 2.5, 128.0])
    def test_low_watermark_refuses_a_count_that_is_no_integer(self, low):
        with pytest.raises(AortaError, match="shed watermarks"):
            OverloadPolicy(shed_low_watermark=low)

    def test_utilization_cap_bounds(self):
        """A window commits at most the capped share of the fleet's
        device-seconds: the rest absorbs estimate error and retries."""
        budget = CAPACITY_HORIZON * UTILIZATION_CAP
        assert 0.0 < budget < CAPACITY_HORIZON
        ctrl = controller(OverloadPolicy(), fleet=1)
        assert ctrl.admit_request(1, budget, 0.0) is None
        assert ctrl.admit_request(1, 0.1, 0.0) == REASON_CAPACITY

    def test_queue_limit_positive(self):
        with pytest.raises(AortaError, match="queue_limit"):
            OverloadPolicy(queue_limit=0)


def controller(policy, fleet=4):
    return AdmissionController(policy, fleet_size=lambda: fleet)


class TestRateGate:
    def test_unlimited_tier_always_admits(self):
        ctrl = controller(OverloadPolicy(tier_rates={1: TierRate(1.0, 1.0)}))
        for _ in range(50):
            assert ctrl.admit_request(2, 0.1, 0.0) is None

    def test_limited_tier_refused_past_burst(self):
        ctrl = controller(OverloadPolicy(tier_rates={1: TierRate(1.0, 2.0)}))
        assert ctrl.admit_request(1, 0.1, 0.0) is None
        assert ctrl.admit_request(1, 0.1, 0.0) is None
        assert ctrl.admit_request(1, 0.1, 0.0) == REASON_RATE


class TestCapacityGate:
    POLICY = OverloadPolicy()

    def test_window_budget_is_fleet_times_horizon(self):
        ctrl = controller(self.POLICY, fleet=2)   # 18 device-seconds
        assert ctrl.admit_request(1, 13.5, 0.0) is None
        assert ctrl.admit_request(1, 9.0, 1.0) == REASON_CAPACITY
        assert ctrl.admit_request(1, 4.5, 1.0) is None

    def test_window_resets_on_next_horizon(self):
        ctrl = controller(self.POLICY, fleet=1)   # 9 device-seconds
        assert ctrl.admit_request(1, 9.0, 0.0) is None
        assert ctrl.admit_request(1, 1.0, 5.0) == REASON_CAPACITY
        assert ctrl.admit_request(1, 1.0, CAPACITY_HORIZON) is None

    def test_protected_tier_bypasses_but_still_commits(self):
        ctrl = controller(self.POLICY, fleet=1)
        assert ctrl.admit_request(3, 100.0, 0.0) is None  # bypass
        # The protected load was committed, so tier 1 now sees a full
        # window.
        assert ctrl.admit_request(1, 1.0, 0.0) == REASON_CAPACITY

    def test_deterministic_counters(self):
        def run():
            ctrl = controller(OverloadPolicy(
                tier_rates={1: TierRate(2.0, 2.0)}), fleet=1)
            return [ctrl.admit_request(1 + step % 3, 0.7, step * 0.3)
                    for step in range(30)]
        assert run() == run()
