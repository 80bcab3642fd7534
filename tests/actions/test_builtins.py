"""Execution tests for the built-in action library on simulated devices."""

import pytest

from repro.errors import QueryError
from repro.geometry import Point
from repro.devices import MobilePhone, PanTiltZoomCamera, SensorMote
from repro.actions import ActionRegistry, install_builtin_actions
from repro.actions.builtins import DEFAULT_PHOTO_KB
from repro.cost import CostModel
from repro.profiles.defaults import (
    camera_cost_table,
    phone_cost_table,
    sensor_cost_table,
)
from repro.sim import Environment


@pytest.fixture
def stack():
    env = Environment()
    registry = ActionRegistry()
    cost_model = CostModel({table.device_type: table for table in (
        camera_cost_table(), sensor_cost_table(), phone_cost_table())})
    install_builtin_actions(registry, cost_model)
    # sendphoto is the reference user-defined action; register it the
    # direct way for these execution tests.
    from repro.actions.builtins import sendphoto_definition
    sendphoto = sendphoto_definition()
    registry.register(sendphoto)
    cost_model.register_action(sendphoto.profile, sendphoto.resolver)
    return env, registry, cost_model


def run(env, generator):
    box = []

    def proc(env):
        box.append((yield from generator))

    env.process(proc(env))
    env.run()
    return box[0]


def test_photo_action_takes_photo(stack):
    env, registry, _ = stack
    camera = PanTiltZoomCamera(env, "cam1", Point(0, 0))
    photo = run(env, registry.get("photo").execute(
        camera, {"target": Point(5, 5), "directory": "photos/admin"}))
    assert photo.ok
    assert camera.photo_log == [photo]
    assert photo.directory == "photos/admin"


def test_photo_estimate_matches_actual(stack):
    env, registry, cost_model = stack
    camera = PanTiltZoomCamera(env, "cam1", Point(0, 0))
    target = Point(-7, 3)
    estimate = cost_model.estimate("photo", camera, {"target": target})
    start = env.now
    run(env, registry.get("photo").execute(
        camera, {"target": target, "directory": "photos"}))
    assert env.now - start == pytest.approx(estimate.seconds)


def test_photo_on_wrong_device_type_rejected(stack):
    env, registry, _ = stack
    mote = SensorMote(env, "m1", Point(0, 0))
    with pytest.raises(QueryError, match="operates 'camera'"):
        run(env, registry.get("photo").execute(
            mote, {"target": Point(1, 1), "directory": "x"}))


def test_sendphoto_delivers_mms(stack):
    env, registry, _ = stack
    phone = MobilePhone(env, "p1", Point(0, 0), number="+85291234567")
    message = run(env, registry.get("sendphoto").execute(
        phone, {"phone_no": "+85291234567",
                "photo_pathname": "photos/cam1_0_360.jpg"}))
    assert message.kind == "mms"
    assert phone.inbox == [message]


def test_sendphoto_estimate_matches_actual(stack):
    env, registry, cost_model = stack
    phone = MobilePhone(env, "p1", Point(0, 0), number="+852")
    args = {"phone_no": "+852", "photo_pathname": "x.jpg"}
    estimate = cost_model.estimate("sendphoto", phone, args)
    start = env.now
    run(env, registry.get("sendphoto").execute(phone, args))
    # connect (0.3) + MMS fixed + per-kB transfer
    assert env.now - start == pytest.approx(estimate.seconds)
    assert estimate.quantities["mms_kilobytes"] == DEFAULT_PHOTO_KB


def test_beep_estimate_scales_with_hop_depth(stack):
    env, registry, cost_model = stack
    shallow = SensorMote(env, "s1", Point(0, 0), hop_depth=1)
    deep = SensorMote(env, "s2", Point(0, 0), hop_depth=4)
    c_shallow = cost_model.estimate("beep", shallow, {}).seconds
    c_deep = cost_model.estimate("beep", deep, {}).seconds
    assert c_deep - c_shallow == pytest.approx(3 * 0.02)


def test_beep_executes_on_mote(stack):
    env, registry, _ = stack
    mote = SensorMote(env, "s1", Point(0, 0))
    before = mote.battery_volts
    run(env, registry.get("beep").execute(mote, {}))
    assert mote.battery_volts < before
    assert mote.operations_executed == 2  # connect + beep


def test_blink_estimate_matches_actual(stack):
    env, registry, cost_model = stack
    mote = SensorMote(env, "s1", Point(0, 0), hop_depth=2)
    estimate = cost_model.estimate("blink", mote, {})
    start = env.now
    run(env, registry.get("blink").execute(mote, {}))
    assert env.now - start == pytest.approx(estimate.seconds)
