"""Fault-tolerant action execution: retry, failover, quarantine.

These tests exercise the PR-2 fault-tolerance layer end to end: the
RetryPolicy around action execution in the dispatcher, failover
re-dispatch through the shared operator, the DeviceHealthTracker gate
on candidate sets, and the drain of a dead device's queue.
"""

import math
import random

import pytest

from repro.errors import AortaError
from repro import (
    EngineConfig,
    HealthPolicy,
    PanTiltZoomCamera,
    Point,
    RetryPolicy,
)
from repro.actions.request import ActionRequest, RequestState
from repro.core.config import (
    BACKOFF_BASE,
    BACKOFF_FACTOR,
    BACKOFF_JITTER,
    BACKOFF_MAX,
)
from repro.core.dispatcher import MAX_DISPATCHES, _Batch
from repro.devices.health import BreakerState
from tests.core.conftest import build_lab
from tests.core.test_fastpath import drive as dispatch_pending_until
from tests.obs.scenarios import FT_HORIZON, FT_REQUEST_PERIOD, ft_scenario


def make_request(engine, target, candidates=("cam1", "cam2")):
    return ActionRequest(
        action_name="photo",
        arguments={"target": target, "directory": "photos"},
        created_at=engine.env.now,
        candidates=tuple(candidates),
    )


def drive(engine, requests):
    """Dispatch a batch, then keep draining failover re-entries."""
    action = engine.actions.get("photo")
    reports = []

    def proc(env):
        report = yield from engine.dispatcher.dispatch_batch(
            action, requests)
        reports.append(report)
        while engine.dispatcher.pending_requests:
            more = yield from engine.dispatcher.dispatch_pending()
            reports.extend(more)

    engine.env.process(proc(engine.env))
    engine.env.run()
    return reports


# ----------------------------------------------------------------------
# RetryPolicy itself
# ----------------------------------------------------------------------
def test_retry_policy_validation():
    with pytest.raises(AortaError, match="max_attempts"):
        RetryPolicy(max_attempts=0)


@pytest.mark.parametrize("field, value", [
    ("lock_lease_seconds", math.nan), ("lock_lease_seconds", math.inf),
    ("lock_lease_seconds", -math.inf), ("time_scale", math.nan),
    ("time_scale", math.inf)])
def test_engine_config_refuses_nan_and_infinite_durations(field, value):
    """Refused at construction: every comparison with NaN is False, so
    a NaN lease would otherwise fail only at the first lock
    acquisition, far from its cause."""
    with pytest.raises(AortaError, match=field):
        EngineConfig(**{field: value})
    EngineConfig(lock_lease_seconds=None, time_scale=0.0)


def test_retry_policy_backoff_shape():
    # Nominal waits are 0.5, 1, ... seconds; the eighth (64 s) is capped.
    policy = RetryPolicy(max_attempts=9)
    rng = random.Random(0)
    waits = [policy.backoff_seconds(a, rng) for a in (1, 2, 8)]
    for attempt, wait in enumerate(waits[:2], start=1):
        nominal = BACKOFF_BASE * BACKOFF_FACTOR ** (attempt - 1)
        assert abs(wait - nominal) <= BACKOFF_JITTER * nominal
    assert waits[2] == BACKOFF_MAX
    values = {RetryPolicy().backoff_seconds(1, random.Random(s))
              for s in range(20)}
    assert len(values) > 1


def test_backoff_max_bounds_the_jittered_wait():
    """The ceiling holds after jitter, and capping draws no extra
    random number (the retry stream stays aligned)."""
    policy = RetryPolicy(max_attempts=10)
    rng, twin = random.Random(7), random.Random(7)
    for _ in range(1000):
        assert policy.backoff_seconds(10, rng) <= BACKOFF_MAX
        twin.random()
    assert rng.getstate() == twin.getstate()


def test_default_policy_is_disabled():
    policy = EngineConfig().retry
    assert policy.max_attempts == 1 and not policy.failover
    assert EngineConfig().health is None


# ----------------------------------------------------------------------
# Retry on the same device
# ----------------------------------------------------------------------
def test_retry_bridges_a_transient_outage():
    engine = build_lab(config=EngineConfig(
        probing=False, retry=RETRY_THROUGH_OUTAGE))
    engine.comm.registry.get("cam1").go_offline()

    def recovery(env):
        yield env.timeout(OUTAGE_SECONDS)
        engine.comm.registry.get("cam1").go_online()

    engine.env.process(recovery(engine.env))
    request = make_request(engine, Point(4, 3), candidates=("cam1",))
    reports = drive(engine, [request])

    # Attempts at t=0 (fail), t~0.5 (fail), t~1.5 (cam1 back): serviced.
    assert request.state is RequestState.SERVICED
    assert request.assigned_device == "cam1"
    assert request.attempts == 3
    assert engine.statistics()["retries"] == 2
    assert reports[0].serviced == 1
    assert reports[0].retries == 2
    assert len(engine.tracer.of_kind("request_retry")) == 2


#: cam1's outage in the retry tests: it ends between the second
#: attempt (t = 0.5 s +/- jitter) and the third (t = 1.5 s +/- jitter).
OUTAGE_SECONDS = 1.2
RETRY_THROUGH_OUTAGE = RetryPolicy(max_attempts=4)


def overlapping_photo_and_beep(config):
    """One ``dispatch_pending`` over two actions: sibling batches.

    cam1 is offline until t=1.2, so the photo batch is still retrying
    long after the beep batch has scheduled, executed and reported.
    """
    engine = build_lab(config=config)
    engine.comm.registry.get("cam1").go_offline()

    def recovery(env):
        yield env.timeout(OUTAGE_SECONDS)
        engine.comm.registry.get("cam1").go_online()

    engine.env.process(recovery(engine.env))
    dispatcher = engine.dispatcher
    photo_operator = dispatcher.operator_for(engine.actions.get("photo"))
    for target in (Point(4, 3), Point(8, 3)):
        photo_operator.submit(
            make_request(engine, target, candidates=("cam1",)))
    dispatcher.operator_for(engine.actions.get("beep")).submit(
        ActionRequest(action_name="beep", arguments={},
                      created_at=engine.env.now, candidates=("mote1",)))
    photo, beep = dispatch_pending_until(engine, until=60.0)
    assert (photo.action_name, beep.action_name) == ("photo", "beep")
    assert beep.batch_finished_at < photo.batch_finished_at
    assert (photo.serviced, beep.serviced) == (2, 1)
    return engine, photo, beep




def test_overlapping_batches_report_their_own_attempts():
    engine, photo, beep = overlapping_photo_and_beep(EngineConfig(
        probing=False, retry=RETRY_THROUGH_OUTAGE))
    # The first photo bridges the outage (t=0, ~0.5, ~1.5); the second, queued
    # behind it on cam1, then succeeds at once.
    assert (photo.attempts, photo.retries) == (4, 2)
    assert (beep.attempts, beep.retries) == (1, 0)
    stats = engine.statistics()
    assert photo.attempts + beep.attempts == stats["execution_attempts"]
    assert photo.retries + beep.retries == stats["retries"]


def test_overlapping_batches_report_their_own_cache_stats():
    """Under SA both batches have a memo; each report holds its own."""
    _, photo, beep = overlapping_photo_and_beep(EngineConfig(
        probing=False, scheduler="SA", retry=RETRY_THROUGH_OUTAGE))
    # One beep on one mote is one distinct estimate; two photos on one
    # camera are four (either first, the other from where it leaves
    # the head).
    assert beep.cache_stats["misses"] == 1
    assert photo.cache_stats["misses"] == 4


def test_permanent_failures_are_not_retried():
    engine = build_lab(config=EngineConfig(
        probing=False,
        retry=RetryPolicy(max_attempts=3, failover=True)))
    # no_coverage is geometric and hence permanent for a fixed camera:
    # photographing a target behind it fails identically every attempt.
    request = make_request(engine, Point(-50, 0), candidates=("cam1",))
    drive(engine, [request])
    assert request.state is RequestState.FAILED
    assert request.attempts == 1
    assert engine.statistics()["retries"] == 0
    assert engine.statistics()["failovers"] == 0


# ----------------------------------------------------------------------
# Failover re-dispatch
# ----------------------------------------------------------------------
def test_failover_reassigns_to_surviving_candidate():
    engine = build_lab(config=EngineConfig(
        probing=False, retry=RetryPolicy(failover=True)))
    engine.comm.registry.get("cam1").go_offline()
    # Target near cam1, so the blind scheduler assigns cam1 first.
    request = make_request(engine, Point(4, 3))
    reports = drive(engine, [request])

    assert request.state is RequestState.SERVICED
    assert request.assigned_device == "cam2"
    assert request.failed_devices == ("cam1",)
    assert request.dispatches == 2
    assert engine.statistics()["failovers"] == 1
    assert reports[0].failed_over == 1
    assert reports[0].serviced == 0 and reports[0].failed == 0
    assert reports[1].serviced == 1
    # The request completed exactly once.
    assert engine.dispatcher.completed == [request]
    assert engine.statistics()["requests_serviced"] == 1
    assert engine.statistics()["requests_failed"] == 0


def test_failover_respects_dispatch_cap():
    engine = build_lab(config=EngineConfig(
        probing=False, retry=RetryPolicy(failover=True)))
    engine.add_device(PanTiltZoomCamera(engine.env, "cam3", Point(40, 0),
                                        facing=180.0))
    for camera in ("cam1", "cam2", "cam3"):
        engine.comm.registry.get(camera).go_offline()
    request = make_request(engine, Point(4, 3),
                           candidates=("cam1", "cam2", "cam3"))
    request.dispatches = MAX_DISPATCHES - 2
    drive(engine, [request])
    # Two more dispatches (this one + one failover) reach the cap, then
    # final failure although a third candidate was never tried.
    assert request.state is RequestState.FAILED
    assert request.dispatches == MAX_DISPATCHES
    assert engine.statistics()["failovers"] == 1
    assert len(request.failed_devices) == 1


def test_no_available_candidate_requeues_until_recovery():
    engine = build_lab(config=EngineConfig(
        retry=RetryPolicy(failover=True)))
    engine.comm.registry.get("cam1").go_offline()
    engine.comm.registry.get("cam2").go_offline()

    def recovery(env):
        yield env.timeout(3.0)
        engine.comm.registry.get("cam2").go_online()

    engine.env.process(recovery(engine.env))
    action = engine.actions.get("photo")
    operator = engine.dispatcher.operator_for(action)
    engine.dispatcher.start()
    operator.submit(make_request(engine, Point(16, 3)))
    engine.env.run(until=30.0)

    [request] = engine.dispatcher.completed
    assert request.state is RequestState.SERVICED
    assert request.assigned_device == "cam2"
    assert request.dispatches > 1


def test_dead_device_queue_drains_back_to_dispatcher():
    engine = build_lab(config=EngineConfig(
        probing=False, retry=RetryPolicy(failover=True)))
    engine.comm.registry.get("cam1").go_offline()
    action = engine.actions.get("photo")
    operator = engine.dispatcher.operator_for(action)
    first = make_request(engine, Point(4, 3))
    second = make_request(engine, Point(5, 3))
    first.dispatches = second.dispatches = 1
    camera = engine.comm.registry.get("cam1")

    batch = _Batch(action, [first, second], engine.env.now)

    def proc(env):
        yield from engine.dispatcher._service_queue(
            batch, camera, [first, second])

    engine.env.process(proc(engine.env))
    engine.env.run()

    # The first request failed over after its attempt; the second was
    # drained back without ever executing on the dead camera.
    assert first.attempts == 1
    assert second.attempts == 0
    assert second.state is RequestState.PENDING
    assert "cam1" not in second.candidates
    assert operator.pending_count == 2
    assert not engine.locks.is_locked("cam1")


# ----------------------------------------------------------------------
# Quarantine wiring
# ----------------------------------------------------------------------
def test_repeated_probe_failures_quarantine_device():
    engine = build_lab(config=EngineConfig(
        retry=RetryPolicy(failover=True),
        health=HealthPolicy(failure_threshold=2, quarantine_seconds=30.0)))
    engine.comm.registry.get("cam1").go_offline()

    reports = drive(engine, [make_request(engine, Point(16, 3))])
    assert reports[-1].serviced == 1  # cam2 services it
    reports = drive(engine, [make_request(engine, Point(16, 3))])
    # Second consecutive probe failure opened the breaker.
    assert engine.health.state_of("cam1") is BreakerState.OPEN

    probes_before = engine.statistics()["probes_sent"]
    reports = drive(engine, [make_request(engine, Point(16, 3))])
    # cam1 was skipped outright: only cam2 got probed.
    assert reports[-1].quarantined_skipped == 1
    assert engine.statistics()["probes_sent"] == probes_before + 1


def test_quarantined_device_readmitted_after_probation_probe():
    engine = build_lab(config=EngineConfig(
        retry=RetryPolicy(failover=True),
        health=HealthPolicy(failure_threshold=2, quarantine_seconds=5.0)))
    camera = engine.comm.registry.get("cam1")
    camera.go_offline()
    drive(engine, [make_request(engine, Point(16, 3))])
    drive(engine, [make_request(engine, Point(16, 3))])
    assert engine.health.state_of("cam1") is BreakerState.OPEN

    camera.go_online()
    engine.env.run(until=engine.env.now + 6.0)  # window expires
    request = make_request(engine, Point(4, 3))
    drive(engine, [request])
    # Probation probe succeeded: cam1 is back in the candidate pool.
    assert engine.health.state_of("cam1") is BreakerState.CLOSED
    assert request.state is RequestState.SERVICED
    assert engine.statistics()["devices_readmitted"] == 1
    assert engine.statistics()["devices_readmitted"] == 1


# ----------------------------------------------------------------------
# Disabled-policy equivalence
# ----------------------------------------------------------------------
def test_fault_tolerance_config_is_inert_without_failures():
    """With nothing failing, FT on and off behave identically."""
    outcomes = []
    for config in (EngineConfig(),
                   EngineConfig(retry=RetryPolicy(max_attempts=3,
                                                  failover=True),
                                health=HealthPolicy())):
        engine = build_lab(config=config)
        requests = [make_request(engine, Point(4, 3)),
                    make_request(engine, Point(16, 3)),
                    make_request(engine, Point(10, 3))]
        reports = drive(engine, requests)
        outcomes.append((
            [r.assigned_device for r in requests],
            [r.completed_at for r in requests],
            [(rep.serviced, rep.failed, rep.failed_over,
              rep.batch_finished_at) for rep in reports],
        ))
    assert outcomes[0] == outcomes[1]


def test_statistics_expose_fault_tolerance_counters():
    engine = build_lab(config=EngineConfig(
        retry=RetryPolicy(max_attempts=2, failover=True),
        health=HealthPolicy()))
    drive(engine, [make_request(engine, Point(4, 3))])
    stats = engine.statistics()
    assert stats["execution_attempts"] == 1
    assert stats["retries"] == 0
    assert stats["failovers"] == 0
    assert stats["devices_quarantined"] == 0
    assert stats["currently_quarantined"] == 0


def test_recovery_services_what_the_default_policy_loses():
    """Random outages under a steady photo() workload, probing off:
    retries, failover and quarantine service at least 90 % of it, and
    more than the default policy, which loses every request assigned to
    a camera mid-outage. Both runs resolve every request."""
    submitted = len(range(1, int(FT_HORIZON / FT_REQUEST_PERIOD)))
    recovered = ft_scenario().statistics()
    baseline = ft_scenario(fault_tolerant=False).statistics()
    for stats in (recovered, baseline):
        assert stats["requests_serviced"] + stats["requests_failed"] \
            == submitted
    assert recovered["requests_serviced"] >= 0.9 * submitted
    assert recovered["requests_serviced"] > baseline["requests_serviced"]
    assert recovered["retries"] > 0 and recovered["failovers"] > 0
    assert baseline["retries"] == baseline["failovers"] == 0
