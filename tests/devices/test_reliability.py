"""Hardware-unreliability behaviours: spontaneous blur, offline photos,
phone coverage dropouts."""

import random

import pytest

from repro.errors import DeviceError
from repro.geometry import Point
from repro.devices import MobilePhone, PanTiltZoomCamera
from repro.devices.failures import FailureInjector
from repro.sim import Environment


def run_photo(env, camera, target):
    photos = []

    def proc(env):
        photos.append((yield from camera.take_photo(target, "photos")))

    env.process(proc(env))
    env.run()
    return photos[0]


def test_blur_probability_zero_never_blurs():
    env = Environment()
    camera = PanTiltZoomCamera(env, "cam1", Point(0, 0))
    for _ in range(10):
        assert not run_photo(env, camera, Point(10, 5)).blurred


def test_blur_probability_produces_occasional_blur():
    env = Environment()
    camera = PanTiltZoomCamera(env, "cam1", Point(0, 0),
                               blur_probability=0.5,
                               rng=random.Random(3))
    results = [run_photo(env, camera, Point(10, 5)).blurred
               for _ in range(30)]
    assert any(results) and not all(results)


def test_invalid_blur_probability_rejected():
    env = Environment()
    with pytest.raises(DeviceError, match="blur_probability"):
        PanTiltZoomCamera(env, "cam1", Point(0, 0), blur_probability=1.0)


def test_offline_camera_rejects_take_photo():
    env = Environment()
    camera = PanTiltZoomCamera(env, "cam1", Point(0, 0))
    camera.go_offline()

    def proc(env):
        yield from camera.take_photo(Point(5, 5), "photos")

    env.process(proc(env))
    with pytest.raises(DeviceError, match="offline"):
        env.run()


def test_photo_accounting_updates_busy_seconds():
    env = Environment()
    camera = PanTiltZoomCamera(env, "cam1", Point(0, 0))
    run_photo(env, camera, Point(10, 5))
    assert camera.operations_executed == 1
    assert camera.busy_seconds >= 0.36


def test_coverage_dropout_window():
    env = Environment()
    phone = MobilePhone(env, "p1", Point(0, 0), number="+852")
    injector = FailureInjector(env)
    injector.schedule_coverage_dropout(phone, start=5.0, duration=10.0)
    observations = []

    def observer(env):
        yield env.timeout(4.0)
        observations.append(phone.in_coverage)
        yield env.timeout(6.0)
        observations.append(phone.in_coverage)
        yield env.timeout(10.0)
        observations.append(phone.in_coverage)

    env.process(observer(env))
    env.run()
    assert observations == [True, False, True]
    assert phone.online  # a dropout is not an outage


def test_coverage_dropout_validation():
    env = Environment()
    injector = FailureInjector(env)
    phone = MobilePhone(env, "p1", Point(0, 0), number="+852")
    with pytest.raises(DeviceError, match="duration"):
        injector.schedule_coverage_dropout(phone, start=0, duration=0)
    camera = PanTiltZoomCamera(env, "cam1", Point(0, 0))
    with pytest.raises(DeviceError, match="only apply to phones"):
        injector.schedule_coverage_dropout(camera, start=0, duration=1)


def test_coverage_dropout_in_the_past_rejected():
    """Like an outage or a straggler, a dropout cannot start before now:
    begun late, it would still end ``duration`` after now, not after
    its start."""
    env = Environment()
    phone = MobilePhone(env, "p1", Point(0, 0), number="+852")
    injector = FailureInjector(env)
    env.run(until=10.0)
    with pytest.raises(DeviceError, match="clock is already at"):
        injector.schedule_coverage_dropout(phone, start=5.0, duration=1.0)
    env.run()
    assert phone.in_coverage
