"""Canonical deterministic scenarios for the golden-trace harness.

Every scenario builds a fresh engine on a fresh virtual clock with
explicit seeds, so two runs — in the same process or across machines —
produce the same trace records, the same statistics dict and (with
observability on) the same span tree and metric snapshot. The golden
harness (:mod:`tests.obs.golden`) diffs normalized dumps of these runs
against checked-in JSON.

``observability=None`` means "do not pass the knob at all": the config
is built exactly as pre-observability code built it, which is what the
pre-instrumentation golden capture used.
"""

from __future__ import annotations

import random
from typing import Optional

from repro import (
    AortaEngine,
    EngineConfig,
    Environment,
    HealthPolicy,
    PanTiltZoomCamera,
    Point,
    RetryPolicy,
    SensorMote,
    SensorStimulus,
)
from repro.actions.request import ActionRequest
from repro.devices.failures import FailureInjector, OutageSpec
from repro.overload import OverloadPolicy, TierRate


def _config(observability: Optional[bool], **kwargs) -> EngineConfig:
    if observability is not None:
        kwargs["observability"] = observability
    return EngineConfig(**kwargs)


def snapshot_scenario(observability: Optional[bool] = None,
                      env=None, **config_kwargs) -> AortaEngine:
    """The paper's Figure 1 snapshot: one stimulus, one photo.

    Two ceiling cameras cover a sensor mote; an acceleration spike at
    t=2s triggers the registered AQ once, and the cost-optimal camera
    takes the photo. Runs 30 virtual seconds. Extra keyword arguments
    pass through to :class:`EngineConfig` (e.g. ``status_cache``,
    for identity tests against the cache-off golden).
    """
    env = env if env is not None else Environment()
    engine = AortaEngine(env, config=_config(observability,
                                             **config_kwargs), seed=0)
    engine.add_device(PanTiltZoomCamera(env, "cam1", Point(0, 0),
                                        ip_address="10.0.0.1"))
    engine.add_device(PanTiltZoomCamera(env, "cam2", Point(20, 0),
                                        facing=180.0,
                                        ip_address="10.0.0.2"))
    mote = SensorMote(env, "mote1", Point(5, 3), noise_amplitude=0.0)
    engine.add_device(mote)
    engine.execute('''CREATE AQ snapshot AS
        SELECT photo(c.ip, s.loc, "photos/admin")
        FROM sensor s, camera c
        WHERE s.accel_x > 500 AND coverage(c.id, s.loc)''')
    mote.inject(SensorStimulus("accel_x", start=2.0, duration=3.0,
                               magnitude=850.0))
    engine.start()
    engine.run(until=30.0)
    return engine


def continuous_outage_scenario(
    observability: Optional[bool] = None,
    env=None,
    **config_kwargs,
) -> AortaEngine:
    """A continuous photo workload through injected camera outages.

    Three cameras service a photo() request every 2 virtual seconds
    with probing off (the Section 4 ablation, so failures hit the
    execution path), retries, failover and a tight circuit breaker.
    cam1 goes offline 8s..24s (long enough to be quarantined and later
    readmitted on probation); cam2 crashes 14s..20s. Runs 70 virtual
    seconds; requests carry explicit ids r01.. so dumps are readable.
    """
    env = env if env is not None else Environment()
    config = _config(
        observability,
        probing=False,
        **config_kwargs,
        retry=RetryPolicy(max_attempts=2, failover=True),
        health=HealthPolicy(failure_threshold=2, quarantine_seconds=10.0,
                            backoff_factor=2.0, quarantine_max=40.0),
        lock_lease_seconds=30.0,
    )
    engine = AortaEngine(env, config=config, seed=0)
    cameras = []
    for index in range(3):
        camera = PanTiltZoomCamera(
            env, f"cam{index + 1}", Point(15.0 * index, 0.0),
            facing=0.0, view_half_angle=170.0, view_range=1000.0)
        engine.add_device(camera)
        cameras.append(camera)
    candidates = tuple(camera.device_id for camera in cameras)

    action = engine.actions.get("photo")
    operator = engine.dispatcher.operator_for(action)

    def workload(env):
        serial = 0
        for tick in range(1, 21):           # t = 2, 4, ..., 40
            submit_at = 2.0 * tick
            delay = submit_at - env.now
            if delay > 0:
                yield env.timeout(delay)
            serial += 1
            operator.submit(ActionRequest(
                action_name="photo",
                arguments={"target": Point(10.0 + tick, 5.0),
                           "directory": "photos"},
                created_at=env.now,
                candidates=candidates,
                request_id=f"r{serial:02d}",
            ))

    env.process(workload(env))
    engine.dispatcher.start()

    injector = FailureInjector(env)
    injector.schedule_outage(cameras[0], OutageSpec(
        device_id="cam1", start=8.0, duration=16.0, kind="offline"))
    injector.schedule_outage(cameras[1], OutageSpec(
        device_id="cam2", start=14.0, duration=6.0, kind="crash"))

    engine.run(until=70.0)
    return engine


# ----------------------------------------------------------------------
# The overload storm scenario (PR 7): a request flood against a small
# camera fleet under the overload-control plane, tuned so every
# overload trace kind fires deterministically.
# ----------------------------------------------------------------------
OVERLOAD_STORM_POLICY = OverloadPolicy(
    tier_rates={1: TierRate(rate=1.0, burst=2.0)},
    queue_limit=16,
    shed_high_watermark=12,
    shed_low_watermark=4,
)


def overload_storm_scenario(observability: Optional[bool] = None,
                            env=None, **config_kwargs) -> AortaEngine:
    """A 40-request storm against four cameras with overload control on.

    Tier-1 traffic trips the admission rate limit (request_rejected);
    the bounded photo queue (limit 16) evicts and backpressures under
    the flood (request_shed / request_rejected); the backlog crosses
    the 12-request high watermark so pressure shedding starts and,
    once drained to 4, stops (shedding_started / shedding_stopped);
    and tier-2 deadlines expire in queue (request_shed). Fully
    deterministic; runs 40 virtual seconds.
    """
    env = env if env is not None else Environment()
    engine = AortaEngine(
        env,
        config=_config(observability, overload=True,
                       overload_policy=OVERLOAD_STORM_POLICY,
                       **config_kwargs),
        seed=0)
    cameras = []
    for index in range(4):
        camera = PanTiltZoomCamera(
            env, f"cam{index + 1}", Point(20.0 * index, 0.0),
            facing=0.0, view_half_angle=170.0, view_range=1000.0)
        engine.add_device(camera)
        cameras.append(camera)
    mote = SensorMote(env, "mote1", Point(5, 3), noise_amplitude=0.0)
    engine.add_device(mote)
    candidates = tuple(camera.device_id for camera in cameras)

    engine.create_aq('''CREATE AQ storm_watch AS
        SELECT photo(c.ip, s.loc, "photos/storm")
        FROM sensor s, camera c
        WHERE s.accel_x > 500 AND coverage(c.id, s.loc)''',
                     priority=1, deadline_seconds=20.0)
    mote.inject(SensorStimulus("accel_x", start=2.0, duration=3.0,
                               magnitude=850.0))

    action = engine.actions.get("photo")
    operator = engine.dispatcher.operator_for(action)

    def make_request(index: int, now: float) -> ActionRequest:
        # Tier mix: 25% tier 3 (protected), 25% tier 2 (deadlined),
        # 50% tier 1 (rate limited).
        if index % 4 == 0:
            tier, deadline = 3, None
        elif index % 4 == 1:
            tier, deadline = 2, now + 3.0
        else:
            tier, deadline = 1, now + 10.0
        return ActionRequest(
            action_name="photo",
            arguments={"target": Point(10.0 + index, 5.0),
                       "directory": "photos/storm"},
            created_at=now,
            candidates=candidates,
            request_id=f"storm{index:02d}",
            priority=tier,
            deadline=deadline,
        )

    injector = FailureInjector(env)
    injector.schedule_request_storm(
        lambda request: engine.dispatcher.submit(operator, request),
        make_request, start=1.0, duration=2.0, rate=20.0)

    engine.start()
    engine.run(until=40.0)
    return engine


# ----------------------------------------------------------------------
# The fault-tolerance scenario: random camera outages under a steady
# photo() workload. The observability-off invariance test replays it
# against its pre-instrumentation capture, and the fault-tolerance
# tests run it with and without the recovery policies.
# ----------------------------------------------------------------------
FT_N_CAMERAS = 8
FT_OUTAGE_RATE = 0.03
FT_MEAN_DURATION = 12.0
FT_FAILURE_SEED = 11
FT_WORKLOAD_SEED = 5
FT_REQUEST_PERIOD = 2.0
FT_HORIZON = 100.0
FT_DRAIN = 60.0

FT_RETRY = RetryPolicy(max_attempts=3, failover=True)
FT_HEALTH = HealthPolicy(failure_threshold=3, quarantine_seconds=15.0,
                         backoff_factor=2.0, quarantine_max=120.0)


def ft_scenario(observability: Optional[bool] = None, env=None, *,
                fault_tolerant: bool = True) -> AortaEngine:
    """The fault-tolerance scenario, as ``pre_instrumentation_ft``
    captured it.

    Eight cameras under Poisson-like random outages (seed 11) service a
    photo() every 2s for 100 virtual seconds plus a 60s drain, with
    probing off (the optimizer assigns blindly, so device loss reaches
    the execution path), retries, failover, quarantine and lock leases.
    ``fault_tolerant=False`` runs the same workload and outages under
    the default policy: one attempt, no failover, no health tracking.
    """
    env = env if env is not None else Environment()
    recovery = dict(retry=FT_RETRY, health=FT_HEALTH,
                    lock_lease_seconds=60.0) if fault_tolerant else {}
    config = _config(observability, probing=False, **recovery)
    engine = AortaEngine(env, config=config, seed=0)
    cam_rng = random.Random(1)
    cameras = []
    for index in range(FT_N_CAMERAS):
        camera = PanTiltZoomCamera(
            env, f"cam{index + 1}",
            Point(cam_rng.uniform(0.0, 100.0), cam_rng.uniform(0.0, 100.0)),
            facing=cam_rng.uniform(-180.0, 180.0),
            view_half_angle=170.0, view_range=1000.0)
        engine.add_device(camera)
        cameras.append(camera)
    candidates = tuple(camera.device_id for camera in cameras)

    action = engine.actions.get("photo")
    operator = engine.dispatcher.operator_for(action)

    workload_rng = random.Random(FT_WORKLOAD_SEED)
    schedule = []
    t = FT_REQUEST_PERIOD
    while t < FT_HORIZON:
        schedule.append((t, Point(workload_rng.uniform(0.0, 100.0),
                                  workload_rng.uniform(0.0, 100.0))))
        t += FT_REQUEST_PERIOD

    def workload(env):
        for submit_at, target in schedule:
            delay = submit_at - env.now
            if delay > 0:
                yield env.timeout(delay)
            operator.submit(ActionRequest(
                action_name="photo",
                arguments={"target": target, "directory": "photos"},
                created_at=env.now,
                candidates=candidates,
            ))

    env.process(workload(env))
    engine.dispatcher.start()

    injector = FailureInjector(env)
    injector.random_outages(
        cameras, horizon=FT_HORIZON,
        outage_rate_per_device=FT_OUTAGE_RATE,
        mean_duration=FT_MEAN_DURATION,
        rng=random.Random(FT_FAILURE_SEED))

    engine.run(until=FT_HORIZON + FT_DRAIN)
    return engine
