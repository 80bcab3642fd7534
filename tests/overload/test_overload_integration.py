"""The overload plane end to end: off-identity, storms, invariants.

Three families of guarantees. First, the off switch: with
``overload=False`` (the default, which the checked-in obs goldens pin)
no overload statistic appears. Second, the storm scenario:
bounded queues actually bound, shedding fires, statistics appear only
when the plane is on, and the whole run is deterministic. Third,
property tests: queue occupancy never exceeds its bound under any
storm, and a permissive policy under light load services exactly the
requests the plain engine services.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    AortaEngine,
    EngineConfig,
    Environment,
    PanTiltZoomCamera,
    Point,
    SensorMote,
)
from repro.actions.request import ActionRequest
from repro.errors import AortaError
from repro.devices.failures import FailureInjector
from repro.overload import OverloadPolicy, TierRate

from tests.core.conftest import LOSSLESS
from tests.obs.golden import dump_engine
from tests.obs.scenarios import (
    OVERLOAD_STORM_POLICY,
    overload_storm_scenario,
    snapshot_scenario,
)

OVERLOAD_OFF = dict(overload=False)


def build_overload_lab(policy, n_cameras=3, env=None):
    """Cameras covering one quiet mote, overload plane configured."""
    env = env if env is not None else Environment()
    engine = AortaEngine(
        env, config=EngineConfig(overload=True, overload_policy=policy),
        links=dict(LOSSLESS))
    for i in range(n_cameras):
        engine.add_device(PanTiltZoomCamera(
            env, f"cam{i + 1}", Point(20.0 * i, 0.0),
            facing=0.0, view_half_angle=170.0, view_range=1000.0))
    engine.add_device(SensorMote(env, "mote1", Point(5, 3),
                                 noise_amplitude=0.0))
    return engine


def storm_request(index, now, candidates):
    if index % 4 == 0:
        tier, deadline = 3, None
    elif index % 4 == 1:
        tier, deadline = 2, now + 3.0
    else:
        tier, deadline = 1, now + 10.0
    return ActionRequest(
        action_name="photo",
        arguments={"target": Point(10.0 + index, 5.0),
                   "directory": "photos"},
        created_at=now, candidates=candidates,
        request_id=f"storm{index:02d}", priority=tier, deadline=deadline)


class TestOverloadOffIdentity:
    """``overload=False`` is the dataclass default, i.e. the engine
    ``tests/obs/test_golden.py`` pins; what is left to check here is
    that the plane's statistics appear only when it is on."""

    def test_overload_statistics_gated_on_the_knob(self):
        off = snapshot_scenario(observability=None, **OVERLOAD_OFF)
        assert not any(key.startswith("overload_")
                       for key in off.statistics())
        on = overload_storm_scenario()
        stats = on.statistics()
        assert "overload_admitted_requests" in stats
        assert "overload_peak_queue_depth" in stats
        assert "requests_shed" in stats

    def test_a_policy_without_the_plane_is_refused(self):
        # The engine built no plane and dropped the policy silently.
        with pytest.raises(AortaError, match="overload_policy"):
            EngineConfig(overload_policy=OverloadPolicy(queue_limit=3))


class TestStormScenario:
    def test_bounded_queues_hold_under_the_storm(self):
        engine = overload_storm_scenario()
        limit = OVERLOAD_STORM_POLICY.queue_limit
        for operator in engine.dispatcher._operators.values():
            assert operator.peak_pending <= limit

    def test_storm_sheds_and_rejects(self):
        engine = overload_storm_scenario()
        stats = engine.statistics()
        assert stats["overload_rejected_requests"] > 0
        assert stats["requests_shed"] > 0
        # Protected tier 3 is never pressure-shed.
        assert stats["overload_shed_by_tier"].get(3, 0) == 0

    def test_storm_run_is_deterministic(self):
        first = dump_engine(overload_storm_scenario(observability=True))
        second = dump_engine(overload_storm_scenario(observability=True))
        assert first == second

    def test_shed_requests_reach_completed_with_reasons(self):
        engine = overload_storm_scenario()
        shed = [r for r in engine.completed_requests
                if r.state.value == "shed"]
        assert shed
        assert all(r.failure_reason for r in shed)
        assert all(r.completed_at is not None for r in shed)


#: A storm of n photo() requests over m cameras at about three times
#: what the fleet services (a photo takes ~0.7 s), a quarter of them
#: tier 3 with no deadline, then a drain too short for the backlog: what
#: gets serviced is what the engine chose to do first.
PRIORITY_STORM = dict(n=48, m=12, rate=3.0 * 12 / 0.7, drain=3.0)
PRIORITY_DEADLINES = {3: None, 2: 1.5, 1: 3.0}


def priority_storm(overload):
    """The storm's engine, run to its horizon."""
    n, m = PRIORITY_STORM["n"], PRIORITY_STORM["m"]
    rate = PRIORITY_STORM["rate"]
    env = Environment()
    config = EngineConfig()
    if overload:
        limit = (3 * n) // 8
        config = EngineConfig(overload=True, overload_policy=OverloadPolicy(
            tier_rates={1: TierRate(rate=2.0, burst=4.0)},
            queue_limit=limit, shed_high_watermark=(3 * limit) // 4,
            shed_low_watermark=limit // 4))
    engine = AortaEngine(env, config=config, seed=0)
    for i in range(m):
        engine.add_device(PanTiltZoomCamera(
            env, f"cam{i + 1}", Point(20.0 * i, 0.0),
            facing=0.0, view_half_angle=170.0, view_range=1000.0))
    operator = engine.dispatcher.operator_for(engine.actions.get("photo"))

    def make_request(index, now):
        tier = {0: 3, 1: 2}.get(index % 4, 1)
        # Cameras rotate independently of the tier, so no camera serves
        # one tier only.
        start = (index // 4 + 7 * (index % 4)) % m
        deadline = PRIORITY_DEADLINES[tier]
        return ActionRequest(
            action_name="photo",
            arguments={"target": Point(20.0 * start + 1.0, 5.0),
                       "directory": "photos/storm"},
            created_at=now,
            candidates=tuple(f"cam{(start + j) % m + 1}" for j in range(4)),
            request_id=f"storm{index:03d}", priority=tier,
            deadline=None if deadline is None else now + deadline)

    FailureInjector(env).schedule_request_storm(
        lambda request: engine.dispatcher.submit(operator, request),
        make_request, start=1.0, duration=n / rate, rate=rate)
    engine.start()
    engine.run(until=1.0 + n / rate + PRIORITY_STORM["drain"])
    return engine


def tier3_serviced(engine):
    """Tier-3 requests traced serviced by the horizon, of those sent."""
    tier3 = {f"storm{index:03d}"
             for index in range(0, PRIORITY_STORM["n"], 4)}
    serviced = {record.fields.get("request") for record in engine.tracer
                if record.kind == "request_serviced"}
    return len(tier3 & serviced) / len(tier3)


def test_a_storm_keeps_the_protected_tier_the_plain_engine_drops():
    """Admission, bounded queues and shedding buy graceful degradation:
    the overloaded engine services at least 95 % of tier 3 inside the
    horizon, the plain engine under the same storm less."""
    assert tier3_serviced(priority_storm(overload=True)) >= 0.95
    assert tier3_serviced(priority_storm(overload=False)) < 0.95


# ----------------------------------------------------------------------
# Property tests: bounded occupancy under any storm; serviced-set
# equality when capacity is sufficient.
# ----------------------------------------------------------------------
class TestQueueBoundInvariant:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(queue_limit=st.integers(min_value=1, max_value=8),
           rate=st.floats(min_value=5.0, max_value=30.0),
           duration=st.floats(min_value=0.5, max_value=2.0),
           n_cameras=st.integers(min_value=1, max_value=4))
    def test_occupancy_never_exceeds_the_bound(
            self, queue_limit, rate, duration, n_cameras):
        policy = OverloadPolicy(
            tier_rates={1: TierRate(rate=2.0, burst=4.0)},
            queue_limit=queue_limit,
            shed_high_watermark=max(2, queue_limit),
            shed_low_watermark=max(2, queue_limit) - 1)
        engine = build_overload_lab(policy, n_cameras=n_cameras)
        candidates = tuple(f"cam{i + 1}" for i in range(n_cameras))
        operator = engine.dispatcher.operator_for(
            engine.actions.get("photo"))
        injector = FailureInjector(engine.env)
        injector.schedule_request_storm(
            lambda r: engine.dispatcher.submit(operator, r),
            lambda i, now: storm_request(i, now, candidates),
            start=1.0, duration=duration, rate=rate)
        engine.start()
        engine.run(until=30.0)
        for op in engine.dispatcher._operators.values():
            assert op.peak_pending <= queue_limit
        # Everything submitted was accounted: serviced, failed, shed,
        # rejected at the gate, or still in flight — never lost.
        stats = engine.statistics()
        submitted = int(rate * duration)
        accounted = (stats["overload_admitted_requests"]
                     + stats["overload_rejected_requests"])
        assert accounted == submitted


class TestServicedSetEquivalence:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rounds=st.integers(min_value=1, max_value=4),
           n_cameras=st.integers(min_value=1, max_value=3))
    def test_permissive_plane_services_the_same_requests(
            self, rounds, n_cameras):
        """When capacity is sufficient, the overload plane is invisible:
        the non-shed serviced set equals the plain engine's."""
        def run(config):
            env = Environment()
            engine = AortaEngine(env, config=config,
                                 links=dict(LOSSLESS))
            for i in range(n_cameras):
                engine.add_device(PanTiltZoomCamera(
                    env, f"cam{i + 1}", Point(20.0 * i, 0.0),
                    facing=0.0, view_half_angle=170.0,
                    view_range=1000.0))
            engine.add_device(SensorMote(env, "mote1", Point(5, 3),
                                         noise_amplitude=0.0))
            candidates = tuple(f"cam{i + 1}" for i in range(n_cameras))
            operator = engine.dispatcher.operator_for(
                engine.actions.get("photo"))

            def workload(env):
                for round_no in range(rounds):
                    delay = 20.0 * round_no + 2.0 - env.now
                    if delay > 0:
                        yield env.timeout(delay)
                    engine.dispatcher.submit(operator, ActionRequest(
                        action_name="photo",
                        arguments={"target": Point(5.0 + 3.0 * round_no,
                                                   5.0),
                                   "directory": "photos"},
                        created_at=env.now, candidates=candidates,
                        request_id=f"pr{round_no}"))

            env.process(workload(env))
            engine.start()
            engine.run(until=20.0 * rounds + 40.0)
            return sorted(r.request_id
                          for r in engine.completed_requests
                          if r.state.value == "serviced")

        plain = run(EngineConfig())
        # The default policy is deliberately permissive: light load
        # passes every gate untouched.
        guarded = run(EngineConfig(overload=True,
                                   overload_policy=OverloadPolicy()))
        assert plain == guarded
