"""Unit tests for the per-device circuit breaker (DeviceHealthTracker)."""

import math

import pytest

from repro.errors import DeviceError
from repro.devices.health import (
    BreakerState,
    DeviceHealthTracker,
    HealthPolicy,
)
from repro.obs import Observability
from repro.sim import Environment


POLICY = HealthPolicy(failure_threshold=3, quarantine_seconds=10.0,
                      backoff_factor=2.0, quarantine_max=35.0)


def make_tracker():
    env = Environment()
    return env, DeviceHealthTracker(env, POLICY, obs=Observability(env))


def counted(tracker, name):
    """One ``health.*`` count from the tracker's registry."""
    return tracker.obs.registry.totals().get(f"health.{name}", 0)


def test_policy_validation():
    with pytest.raises(DeviceError, match="failure_threshold"):
        HealthPolicy(failure_threshold=0)
    with pytest.raises(DeviceError, match="quarantine windows"):
        HealthPolicy(quarantine_seconds=0)
    with pytest.raises(DeviceError, match="backoff_factor"):
        HealthPolicy(backoff_factor=0.5)


@pytest.mark.parametrize("field, refused", [
    ("quarantine_seconds", "quarantine windows"),
    ("quarantine_max", "quarantine windows"),
    ("backoff_factor", "backoff_factor")])
def test_policy_refuses_nan(field, refused):
    with pytest.raises(DeviceError, match=refused):
        HealthPolicy(**{field: math.nan})


@pytest.mark.parametrize("threshold", [math.nan, 2.5, 3.0, math.inf])
def test_policy_refuses_a_failure_threshold_that_is_no_integer(threshold):
    # At NaN ``failures >= threshold`` is False: the breaker never opened.
    with pytest.raises(DeviceError, match="failure_threshold"):
        HealthPolicy(failure_threshold=threshold)


def test_unknown_device_is_closed_and_allowed():
    _, tracker = make_tracker()
    assert tracker.state_of("cam1") is BreakerState.CLOSED
    assert tracker.allow_candidate("cam1")


def test_breaker_opens_after_threshold_consecutive_failures():
    _, tracker = make_tracker()
    for _ in range(POLICY.failure_threshold - 1):
        tracker.record_failure("cam1")
        assert tracker.allow_candidate("cam1")
    tracker.record_failure("cam1")
    assert tracker.state_of("cam1") is BreakerState.OPEN
    assert not tracker.allow_candidate("cam1")
    assert tracker.quarantined_ids() == ["cam1"]
    assert counted(tracker, "quarantines") == 1


def test_success_resets_the_failure_streak():
    _, tracker = make_tracker()
    for _ in range(POLICY.failure_threshold - 1):
        tracker.record_failure("cam1")
    tracker.record_success("cam1")
    for _ in range(POLICY.failure_threshold - 1):
        tracker.record_failure("cam1")
    # Never reached threshold consecutively: still closed.
    assert tracker.state_of("cam1") is BreakerState.CLOSED


def test_window_expiry_moves_to_probation_and_success_readmits():
    env, tracker = make_tracker()
    for _ in range(POLICY.failure_threshold):
        tracker.record_failure("cam1")
    assert not tracker.allow_candidate("cam1")
    env.run(until=POLICY.quarantine_seconds + 0.1)
    # Window expired: the device is allowed back on probation.
    assert tracker.allow_candidate("cam1")
    assert tracker.state_of("cam1") is BreakerState.HALF_OPEN
    tracker.record_success("cam1")
    assert tracker.state_of("cam1") is BreakerState.CLOSED
    assert counted(tracker, "readmissions") == 1
    [(labels, recovery)] = tracker.obs.registry.labeled(
        "health.recovery_seconds")
    assert labels == {"device": "cam1"}
    assert recovery.total == pytest.approx(POLICY.quarantine_seconds + 0.1)


def test_probation_failure_reopens_with_doubled_window():
    env, tracker = make_tracker()
    for _ in range(POLICY.failure_threshold):
        tracker.record_failure("cam1")
    env.run(until=POLICY.quarantine_seconds + 1.0)
    assert tracker.allow_candidate("cam1")  # HALF_OPEN
    tracker.record_failure("cam1")
    assert tracker.state_of("cam1") is BreakerState.OPEN
    assert counted(tracker, "quarantines") == 2
    # Window doubled: still quarantined until ~t+20.
    env.run(until=env.now + 2 * POLICY.quarantine_seconds - 1.0)
    assert not tracker.allow_candidate("cam1")
    env.run(until=env.now + 1.5)
    assert tracker.allow_candidate("cam1")


def test_window_growth_is_capped():
    env, tracker = make_tracker()
    # Open, then relapse repeatedly: 10 -> 20 -> 35 (cap) -> 35 ...
    for _ in range(POLICY.failure_threshold):
        tracker.record_failure("cam1")
    for _ in range(4):
        env.run(until=tracker._devices["cam1"].open_until + 0.1)
        assert tracker.allow_candidate("cam1")
        tracker.record_failure("cam1")
    assert tracker._devices["cam1"].window == POLICY.quarantine_max


def test_breakers_are_per_device():
    _, tracker = make_tracker()
    for _ in range(POLICY.failure_threshold):
        tracker.record_failure("cam1")
    assert not tracker.allow_candidate("cam1")
    assert tracker.allow_candidate("cam2")
    assert tracker.state_of("cam2") is BreakerState.CLOSED


def test_tracer_records_quarantine_lifecycle():
    env, tracker = make_tracker()
    tracer = tracker.obs.tracer
    for _ in range(POLICY.failure_threshold):
        tracker.record_failure("cam1", reason="probe connect")
    env.run(until=POLICY.quarantine_seconds + 0.1)
    tracker.allow_candidate("cam1")
    tracker.record_success("cam1")
    kinds = [record.kind for record in tracer]
    assert kinds == ["device_quarantined", "device_probation",
                     "device_readmitted"]
    assert tracer.of_kind("device_quarantined")[0]["reason"] \
        == "probe connect"
