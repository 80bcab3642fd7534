"""Integration tests: dynamic device membership and failures mid-run.

Devices "may join, move around, or leave the network dynamically in a
way unpredictable to the system" (Section 4) — the engine must keep
working through all of it.
"""

from repro import PanTiltZoomCamera, Point, SensorMote, SensorStimulus
from repro.actions.request import RequestState
from repro.devices.failures import FailureInjector, OutageSpec
from tests.core.conftest import FIGURE_1, build_lab


def test_camera_joining_mid_run_becomes_candidate(engine):
    engine.execute(FIGURE_1)
    mote = engine.comm.registry.get("mote1")
    # Two events: before and after the new camera joins.
    mote.inject(SensorStimulus("accel_x", start=2.0, duration=2.0,
                               magnitude=900.0))
    mote.inject(SensorStimulus("accel_x", start=40.0, duration=2.0,
                               magnitude=900.0))

    def join_later(env):
        yield env.timeout(20.0)
        # A camera mounted directly over the mote: clearly the best.
        newcomer = PanTiltZoomCamera(env, "cam3", Point(4, 2.5),
                                     view_half_angle=180.0)
        engine.add_device(newcomer)

    engine.env.process(join_later(engine.env))
    engine.start()
    engine.run(until=70.0)
    requests = sorted(engine.completed_requests, key=lambda r: r.created_at)
    assert len(requests) == 2
    assert requests[0].assigned_device in ("cam1", "cam2")
    # The newcomer was not a candidate for the first event but is for
    # the second. (It need not *win*: cam1's head is already aimed at
    # the mote after the first photo, so staying put can be cheapest —
    # sequence-dependent costs at work.)
    assert "cam3" not in requests[0].candidates
    assert "cam3" in requests[1].candidates
    assert all(r.state is RequestState.SERVICED for r in requests)


def test_sensor_leaving_stops_its_events(engine):
    engine.execute(FIGURE_1)
    mote = engine.comm.registry.get("mote1")
    mote.inject(SensorStimulus("accel_x", start=2.0, duration=1e6,
                               magnitude=900.0))

    def leave_later(env):
        yield env.timeout(10.0)
        engine.comm.remove_device("mote1")

    engine.env.process(leave_later(engine.env))
    engine.start()
    engine.run(until=60.0)
    # Edge triggering fired once while the mote was present; after its
    # departure the (still active) stimulus can produce nothing.
    assert len(engine.completed_requests) == 1


def test_outage_during_continuous_run(engine):
    engine.execute(FIGURE_1)
    injector = FailureInjector(engine.env)
    injector.schedule_outage(engine.comm.registry.get("cam1"), OutageSpec(
        device_id="cam1", start=5.0, duration=30.0))
    mote = engine.comm.registry.get("mote1")
    mote.inject(SensorStimulus("accel_x", start=10.0, duration=2.0,
                               magnitude=900.0))
    mote.inject(SensorStimulus("accel_x", start=50.0, duration=2.0,
                               magnitude=900.0))
    engine.start()
    engine.run(until=80.0)
    requests = sorted(engine.completed_requests, key=lambda r: r.created_at)
    assert len(requests) == 2
    # During the outage only cam2 was available; afterwards cam1 (closer
    # to mote1) is eligible again.
    assert requests[0].assigned_device == "cam2"
    assert all(r.state is RequestState.SERVICED for r in requests)


def test_long_run_with_random_failures_stays_consistent():
    """A soak test: 20 virtual minutes, random outages, many events."""
    import random
    engine = build_lab(n_motes=6)
    for i in range(1, 7):
        engine.execute(f'''CREATE AQ q{i} AS
            SELECT photo(c.ip, s.loc, "photos/q{i}")
            FROM sensor s, camera c
            WHERE s.accel_x > 500 AND s.id = "mote{i}"
              AND coverage(c.id, s.loc)''')
    rng = random.Random(5)
    for i in range(1, 7):
        mote = engine.comm.registry.get(f"mote{i}")
        for _ in range(10):
            mote.inject(SensorStimulus(
                "accel_x", start=rng.uniform(1, 1150), duration=3.0,
                magnitude=900.0))
    injector = FailureInjector(engine.env)
    injector.random_outages(
        list(engine.comm.registry), horizon=1100.0,
        outage_rate_per_device=0.002, mean_duration=30.0,
        rng=random.Random(9))
    engine.start()
    # Run well past the last event so every outage has recovered.
    engine.run(until=1600.0)

    stats = engine.statistics()
    assert stats["requests_completed"] > 20
    # Everything is accounted for: serviced + failed = completed.
    assert (stats["requests_serviced"] + stats["requests_failed"]
            == stats["requests_completed"])
    # All devices recovered (outages are finite).
    assert all(d.online for d in engine.comm.registry)
    # No device lock leaked.
    for device in engine.comm.registry:
        assert not engine.locks.is_locked(device.device_id)
