"""Unit tests for the Device base class."""

import pytest

from repro.errors import DeviceError
from repro.geometry import Point, ViewSector
from repro.devices import CameraCalibration, MobilePhone, PanTiltZoomCamera
from repro.devices.base import Device, DeviceState, static_epoch
from repro.sim import Environment


class Widget(Device):
    device_type = "widget"

    def op_spin(self, turns=1):
        yield self.env.timeout(0.5 * turns)
        return turns


def test_device_requires_id():
    with pytest.raises(DeviceError, match="non-empty"):
        Widget(Environment(), "", Point(0, 0))


def test_lifecycle_transitions():
    device = Widget(Environment(), "w1", Point(0, 0))
    assert device.state is DeviceState.ONLINE
    device.go_offline()
    assert device.state is DeviceState.OFFLINE
    assert not device.online
    device.go_online()
    assert device.online
    device.crash()
    assert device.state is DeviceState.CRASHED
    device.repair()
    assert device.online


def test_base_static_attributes():
    device = Widget(Environment(), "w1", Point(2, 3))
    assert device.static_attributes() == {"id": "w1", "loc_x": 2,
                                          "loc_y": 3}


@pytest.mark.parametrize("make, attribute, value", [
    (lambda env: Widget(env, "w1", Point(0, 0)), "location", Point(4, 4)),
    (lambda env: PanTiltZoomCamera(env, "c1", Point(0, 0)), "view",
     ViewSector(origin=Point(1, 1), center=0.0, half_angle=90.0,
                max_range=5.0)),
    (lambda env: PanTiltZoomCamera(env, "c1", Point(0, 0)),
     "mount_height", 7.5),
    (lambda env: PanTiltZoomCamera(env, "c1", Point(0, 0)), "calibration",
     CameraCalibration(pan_speed=10.0)),
    (lambda env: PanTiltZoomCamera(env, "c1", Point(0, 0)), "ip_address",
     "10.1.2.3"),
    (lambda env: MobilePhone(env, "p1", Point(0, 0), number="555"),
     "number", "556"),
    (lambda env: MobilePhone(env, "p1", Point(0, 0), number="555"),
     "mms_support", False),
], ids=["location", "view", "mount_height", "calibration", "ip_address",
        "number", "mms_support"])
def test_every_static_state_change_moves_the_static_epoch(make, attribute,
                                                          value):
    device = make(Environment())
    before = static_epoch()
    setattr(device, attribute, value)
    assert getattr(device, attribute) == value
    assert static_epoch() > before


def test_base_read_sensory_raises():
    device = Widget(Environment(), "w1", Point(0, 0))
    with pytest.raises(DeviceError, match="no sensory attribute"):
        device.read_sensory("anything")


def test_base_physical_status_empty():
    assert Widget(Environment(), "w1", Point(0, 0)).physical_status() == {}


def test_execute_dispatches_and_accounts():
    env = Environment()
    device = Widget(env, "w1", Point(0, 0))
    outcomes = []

    def proc(env):
        outcomes.append((yield from device.execute("spin", turns=3)))

    env.process(proc(env))
    env.run()
    outcome = outcomes[0]
    assert outcome.detail == 3
    assert outcome.duration == pytest.approx(1.5)
    assert outcome.succeeded
    assert device.operations_executed == 1
    assert device.busy_seconds == pytest.approx(1.5)


def test_execute_unknown_operation():
    env = Environment()
    device = Widget(env, "w1", Point(0, 0))

    def proc(env):
        yield from device.execute("fly")

    env.process(proc(env))
    with pytest.raises(DeviceError, match="no operation 'fly'"):
        env.run()


def test_execute_while_crashed_rejected():
    env = Environment()
    device = Widget(env, "w1", Point(0, 0))
    device.crash()

    def proc(env):
        yield from device.execute("spin")

    env.process(proc(env))
    with pytest.raises(DeviceError, match="crashed"):
        env.run()
