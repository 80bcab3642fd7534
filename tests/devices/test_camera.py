"""Unit tests for the calibrated PTZ camera simulator."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ActionFailedError, DeviceError
from repro.geometry import Point
from repro.devices import CameraCalibration, HeadPosition, PanTiltZoomCamera
from repro.sim import Environment


def make_camera(env, device_id="cam1", location=Point(0, 0), **kwargs):
    return PanTiltZoomCamera(env, device_id, location, **kwargs)


def run_photo(env, camera, target, directory="photos", size="medium"):
    results = []

    def proc(env):
        photo = yield from camera.take_photo(target, directory, size)
        results.append(photo)

    env.process(proc(env))
    env.run()
    return results[0]


# ----------------------------------------------------------------------
# Calibration: the paper's photo() cost interval [0.36, 5.36]
# ----------------------------------------------------------------------

def test_fixed_photo_cost_matches_paper_minimum():
    cal = CameraCalibration()
    assert cal.fixed_photo_seconds("medium") == pytest.approx(0.36)


def test_max_movement_matches_paper_range():
    cal = CameraCalibration()
    corner = HeadPosition(cal.pan_min, cal.tilt_min, cal.zoom_min)
    opposite = HeadPosition(cal.pan_max, cal.tilt_max, cal.zoom_max)
    traversal = corner.movement_seconds(opposite, cal)
    assert traversal == pytest.approx(5.0)
    # Max photo cost = fixed + movement = 5.36 s, the paper's upper bound.
    assert cal.fixed_photo_seconds() + traversal == pytest.approx(5.36)


def test_photo_on_target_costs_minimum():
    env = Environment()
    camera = make_camera(env)
    target = Point(10, 0)  # directly along the initial pan=0 bearing
    # Pre-aim the head exactly at the target.
    camera._motion.origin = camera.aim_for(target)
    camera._motion.target = camera.aim_for(target)
    start = env.now
    photo = run_photo(env, camera, target)
    assert env.now - start == pytest.approx(0.36)
    assert photo.ok


def test_photo_cost_within_paper_interval():
    env = Environment()
    camera = make_camera(env)
    start = env.now
    photo = run_photo(env, camera, Point(5, 5))
    elapsed = env.now - start
    assert 0.36 <= elapsed <= 5.36
    assert photo.ok


# ----------------------------------------------------------------------
# Head movement physics
# ----------------------------------------------------------------------

def test_movement_time_slowest_axis_dominates():
    cal = CameraCalibration()
    a = HeadPosition(pan=0, tilt=0, zoom=1)
    b = HeadPosition(pan=68, tilt=0, zoom=1)       # 1 s of pan
    c = HeadPosition(pan=0, tilt=27, zoom=1)       # 1 s of tilt
    d = HeadPosition(pan=68, tilt=54, zoom=1)      # pan 1 s, tilt 2 s
    assert a.movement_seconds(b, cal) == pytest.approx(1.0)
    assert a.movement_seconds(c, cal) == pytest.approx(1.0)
    assert a.movement_seconds(d, cal) == pytest.approx(2.0)


def test_interpolation_midpoint():
    a = HeadPosition(pan=0, tilt=0, zoom=1)
    b = HeadPosition(pan=100, tilt=50, zoom=5)
    mid = a.interpolate(b, 0.5)
    assert mid.pan == pytest.approx(50)
    assert mid.tilt == pytest.approx(25)
    assert mid.zoom == pytest.approx(3)


def test_interpolation_clamps_fraction():
    a = HeadPosition()
    b = HeadPosition(pan=10)
    assert a.interpolate(b, 2.0).pan == pytest.approx(10)
    assert a.interpolate(b, -1.0).pan == pytest.approx(0)


def test_head_position_tracks_in_flight_motion():
    env = Environment()
    camera = make_camera(env)
    target = HeadPosition(pan=68, tilt=0, zoom=1)  # 1 s of pan

    def mover(env):
        yield from camera.op_move_head(target)

    def observer(env):
        yield env.timeout(0.5)
        assert camera.head_moving
        assert camera.head_position().pan == pytest.approx(34.0)

    env.process(mover(env))
    env.process(observer(env))
    env.run()
    assert not camera.head_moving
    assert camera.head_position().pan == pytest.approx(68.0)


# ----------------------------------------------------------------------
# Aiming and coverage
# ----------------------------------------------------------------------

def test_aim_pan_follows_bearing():
    env = Environment()
    camera = make_camera(env)
    assert camera.aim_for(Point(10, 0)).pan == pytest.approx(0.0)
    assert camera.aim_for(Point(0, 10)).pan == pytest.approx(90.0)


def test_aim_zoom_scales_with_distance():
    env = Environment()
    camera = make_camera(env)
    near = camera.aim_for(Point(1, 0))
    far = camera.aim_for(Point(40, 0))
    assert near.zoom < far.zoom


def test_aim_tilt_looks_down_more_when_close():
    env = Environment()
    camera = make_camera(env)
    near = camera.aim_for(Point(1, 0))
    far = camera.aim_for(Point(40, 0))
    assert near.tilt < far.tilt < 0


COORDINATE = st.floats(-200.0, 200.0, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(targets=st.lists(st.tuples(COORDINATE, COORDINATE), min_size=1,
                        max_size=12),
       height=st.floats(0.5, 12.0))
def test_aim_memo_returns_exactly_what_aim_for_computes(targets, height):
    camera = make_camera(Environment(), location=Point(3.0, -2.0),
                         mount_height=height)
    # Asked twice, so the second round is served from the memo.
    for x, y in targets * 2:
        memoized = camera.aim_memoized(Point(x, y))
        assert memoized == camera.aim_for(Point(x, y))  # ==, not approx
    assert len(camera._aim_memo) <= len(set(targets))


@pytest.mark.parametrize("remount", [
    lambda camera: setattr(camera, "location", Point(40.0, 25.0)),
    lambda camera: setattr(camera, "mount_height", 9.0),
    lambda camera: setattr(camera, "calibration",
                           CameraCalibration(tilt_min=-10.0, zoom_max=2.0)),
], ids=["location", "mount_height", "calibration"])
def test_aim_memo_is_dropped_when_the_mount_changes(remount):
    camera = make_camera(Environment())
    target = Point(6.0, 2.0)
    before = camera.aim_memoized(target)
    remount(camera)
    assert camera.aim_for(target) != before  # the change matters ...
    assert camera.aim_memoized(target) == camera.aim_for(target)
    assert len(camera._aim_memo) == 1        # ... and nothing stale stays


def test_coverage_respects_range():
    env = Environment()
    camera = make_camera(env, view_range=20.0)
    assert camera.covers(Point(10, 0))
    assert not camera.covers(Point(30, 0))


def test_photo_outside_coverage_fails():
    env = Environment()
    camera = make_camera(env, view_range=5.0)
    results = []

    def proc(env):
        try:
            yield from camera.take_photo(Point(100, 0), "photos")
        except ActionFailedError as exc:
            results.append(exc.reason)

    env.process(proc(env))
    env.run()
    assert results == ["no_coverage"]


# ----------------------------------------------------------------------
# Unsynchronized interference (Section 6.2 failure modes)
# ----------------------------------------------------------------------

def test_concurrent_photos_interfere_without_locking():
    env = Environment()
    camera = make_camera(env)
    photos = []

    def shoot(env, target, delay):
        yield env.timeout(delay)
        photo = yield from camera.take_photo(target, "photos")
        photos.append(photo)

    # Second request arrives while the first is still slewing the head.
    env.process(shoot(env, Point(10, 10), 0.0))
    env.process(shoot(env, Point(-10, -10), 0.3))
    env.run()
    assert len(photos) == 2
    first = min(photos, key=lambda p: p.taken_at)
    # The first photo was hijacked: blurred and/or aimed wrong.
    assert not first.ok


def test_sequential_photos_do_not_interfere():
    env = Environment()
    camera = make_camera(env)
    photos = []

    def shoot(env, target):
        photo = yield from camera.take_photo(target, "photos")
        photos.append(photo)

    def driver(env):
        yield from shoot(env, Point(10, 10))
        yield from shoot(env, Point(-10, -10))

    env.process(driver(env))
    env.run()
    assert len(photos) == 2
    assert all(p.ok for p in photos)


def test_connection_refused_when_overloaded():
    env = Environment()
    camera = make_camera(env)
    failures = []

    def shoot(env, target):
        try:
            yield from camera.take_photo(target, "photos")
        except ActionFailedError as exc:
            failures.append(exc.reason)

    for _ in range(8):  # limit is 4 concurrent connections
        env.process(shoot(env, Point(10, 10)))
    env.run()
    assert failures.count("timeout") >= 1


def test_release_without_connection_rejected():
    env = Environment()
    camera = make_camera(env)
    with pytest.raises(DeviceError, match="no connection"):
        camera.release_connection()


# ----------------------------------------------------------------------
# Status, attributes, operations
# ----------------------------------------------------------------------

def test_physical_status_snapshot():
    env = Environment()
    camera = make_camera(env)
    status = camera.physical_status()
    assert set(status) == {"pan", "tilt", "zoom"}


def test_static_attributes_include_ip():
    env = Environment()
    camera = make_camera(env, ip_address="192.168.0.90")
    row = camera.static_attributes()
    assert row["ip"] == "192.168.0.90"
    assert row["id"] == "cam1"


def test_default_ip_is_the_same_whatever_the_hash_seed():
    """The default address once came from ``hash(device_id)``, which
    is salted per interpreter: ``SELECT c.ip`` changed from run to run,
    and a camera built in a spawned worker got another address than the
    same camera built in-process. Each seed runs in its own process."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    program = ("from repro import PanTiltZoomCamera, Point\n"
               "from repro.sim import Environment\n"
               "print([PanTiltZoomCamera(Environment(), name, Point(0, 0))"
               ".ip_address for name in ('cam1', 'cam2', 'lobby')])\n")
    printed = set()
    for seed in ("1", "2"):
        environment = dict(os.environ, PYTHONHASHSEED=seed,
                           PYTHONPATH=os.path.join(root, "src"))
        done = subprocess.run([sys.executable, "-c", program], cwd=root,
                              env=environment, capture_output=True,
                              text=True, timeout=60, check=True)
        printed.add(done.stdout.strip())
    here = [make_camera(Environment(), name).ip_address
            for name in ("cam1", "cam2", "lobby")]
    assert printed == {repr(here)}


def test_read_sensory_zoom():
    env = Environment()
    camera = make_camera(env)
    assert camera.read_sensory("zoom") == pytest.approx(1.0)


def test_read_unknown_sensory_raises():
    env = Environment()
    camera = make_camera(env)
    with pytest.raises(DeviceError, match="no sensory attribute"):
        camera.read_sensory("altitude")


def test_execute_unknown_operation_raises():
    env = Environment()
    camera = make_camera(env)

    def proc(env):
        yield from camera.execute("teleport")

    env.process(proc(env))
    with pytest.raises(DeviceError, match="no operation"):
        env.run()


def test_execute_records_outcome_and_accounting():
    env = Environment()
    camera = make_camera(env)
    outcomes = []

    def proc(env):
        outcome = yield from camera.execute("store")
        outcomes.append(outcome)

    env.process(proc(env))
    env.run()
    outcome = outcomes[0]
    assert outcome.succeeded
    assert outcome.duration == pytest.approx(0.10)
    assert camera.operations_executed == 1
    assert camera.busy_seconds == pytest.approx(0.10)


def test_offline_camera_rejects_operations():
    env = Environment()
    camera = make_camera(env)
    camera.go_offline()

    def proc(env):
        yield from camera.execute("store")

    env.process(proc(env))
    with pytest.raises(DeviceError, match="offline"):
        env.run()


def test_photo_pathname_is_deterministic():
    env = Environment()
    camera = make_camera(env)
    photo = run_photo(env, camera, Point(5, 5), directory="photos/admin")
    assert photo.pathname.startswith("photos/admin/cam1_")
    assert photo.pathname.endswith(".jpg")
