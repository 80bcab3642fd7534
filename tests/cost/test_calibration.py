"""Calibration harness tests: measured tables match shipped defaults."""

import pytest

from repro.errors import ProfileError
from repro.geometry import Point
from repro.devices import CameraCalibration, PanTiltZoomCamera
from repro.cost.calibration import Calibrator, _fit_line, calibrate_camera
from repro.profiles.defaults import camera_cost_table
from repro.sim import Environment


def test_fit_line_exact():
    intercept, slope = _fit_line([(0, 1.0), (10, 2.0), (20, 3.0)])
    assert intercept == pytest.approx(1.0)
    assert slope == pytest.approx(0.1)


def test_fit_line_needs_two_points():
    with pytest.raises(ProfileError, match="two points"):
        _fit_line([(0, 1.0)])


def test_fit_line_rejects_constant_x():
    with pytest.raises(ProfileError, match="constant quantities"):
        _fit_line([(5, 1.0), (5, 2.0)])


def test_time_trial_measures_virtual_seconds():
    env = Environment()
    calibrator = Calibrator(env)

    def sleep_trial(quantity):
        yield env.timeout(0.25 * quantity)

    measurement = calibrator.time_trial("sleep", 4.0, sleep_trial)
    assert measurement.seconds == pytest.approx(1.0)
    assert calibrator.measurements == [measurement]


def test_fit_fixed_averages_trials():
    env = Environment()
    calibrator = Calibrator(env)

    def trial(_quantity):
        yield env.timeout(0.5)

    cost = calibrator.fit_fixed("op", trial)
    assert len(calibrator.measurements) == 5
    assert cost.fixed_seconds == pytest.approx(0.5)
    assert cost.per_unit_seconds == 0.0


def test_fit_linear_rejects_negative_slope():
    env = Environment()
    calibrator = Calibrator(env)

    def shrinking(quantity):
        yield env.timeout(max(1.0 - quantity * 0.1, 0.01))

    with pytest.raises(ProfileError, match="faster"):
        calibrator.fit_linear("weird", "units", [1, 5, 9], shrinking)


def test_calibrated_camera_table_matches_defaults():
    """The headline: timing the simulator recovers the shipped costs."""
    env = Environment()
    camera = PanTiltZoomCamera(env, "cam1", Point(0, 0))
    measured = calibrate_camera(env, camera)
    reference = camera_cost_table()
    for name, expected in reference.operations.items():
        fitted = measured.operation(name)
        assert fitted.fixed_seconds == pytest.approx(
            expected.fixed_seconds, abs=1e-6), name
        assert fitted.per_unit_seconds == pytest.approx(
            expected.per_unit_seconds, abs=1e-9), name


def test_calibration_tracks_nonstandard_hardware():
    """A camera with a slower head yields a different, correct table."""
    env = Environment()
    slow = CameraCalibration(pan_speed=34.0)  # half the pan speed
    camera = PanTiltZoomCamera(env, "cam1", Point(0, 0))
    camera.calibration = slow  # a re-mount on other hardware
    measured = calibrate_camera(env, camera)
    assert measured.operation("pan").per_unit_seconds == pytest.approx(
        1.0 / 34.0)
    # Everything else unchanged.
    assert measured.operation("tilt").per_unit_seconds == pytest.approx(
        1.0 / 27.0)
