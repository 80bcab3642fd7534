"""Unit tests for the device registry."""

import pytest

from repro.errors import DeviceError, RegistrationError
from repro.geometry import Point
from repro.devices import DeviceRegistry, MobilePhone, PanTiltZoomCamera, SensorMote
from repro.devices.base import static_epoch
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def registry(env):
    registry = DeviceRegistry()
    registry.add(PanTiltZoomCamera(env, "cam1", Point(0, 0)))
    registry.add(PanTiltZoomCamera(env, "cam2", Point(10, 0)))
    registry.add(SensorMote(env, "mote1", Point(5, 5)))
    registry.add(MobilePhone(env, "phone1", Point(0, 0), number="+852"))
    return registry


def test_lookup_by_id(registry):
    assert registry.get("cam1").device_id == "cam1"
    assert "mote1" in registry
    assert len(registry) == 4


def test_unknown_id_raises(registry):
    with pytest.raises(DeviceError, match="unknown device"):
        registry.get("ghost")


def test_duplicate_registration_rejected(registry, env):
    with pytest.raises(RegistrationError, match="already registered"):
        registry.add(PanTiltZoomCamera(env, "cam1", Point(1, 1)))


def test_of_type_preserves_order(registry):
    assert [d.device_id for d in registry.of_type("camera")] == ["cam1", "cam2"]


def test_online_of_type_excludes_offline(registry):
    registry.get("cam1").go_offline()
    assert [d.device_id for d in registry.online_of_type("camera")] == ["cam2"]


def test_remove_returns_device(registry):
    device = registry.remove("mote1")
    assert device.device_id == "mote1"
    assert "mote1" not in registry


def test_membership_listeners(registry, env):
    events = []
    registry.subscribe(lambda event, device: events.append((event, device.device_id)))
    registry.add(SensorMote(env, "mote2", Point(1, 1)))
    registry.remove("mote2")
    assert events == [("join", "mote2"), ("leave", "mote2")]


def test_iteration_yields_all(registry):
    assert {d.device_id for d in registry} == {"cam1", "cam2", "mote1", "phone1"}


def test_join_and_leave_move_the_static_epoch(registry, env):
    mote = SensorMote(env, "mote2", Point(1, 1))
    before = static_epoch()
    registry.add(mote)
    joined = static_epoch()
    assert joined > before
    registry.remove("mote2")
    assert static_epoch() > joined
