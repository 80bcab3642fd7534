"""Unit tests for the communication-layer facade."""

import pytest

from repro.errors import ProfileError, RegistrationError
from repro.geometry import Point
from repro.devices import PanTiltZoomCamera


def test_registered_types(layer):
    assert layer.registered_types() == ["camera", "phone", "sensor"]


def test_duplicate_type_registration_rejected(layer):
    from repro.profiles.defaults import camera_catalog, camera_cost_table
    with pytest.raises(RegistrationError, match="already registered"):
        layer.register_device_type(camera_catalog(), camera_cost_table())


def test_unknown_type_lookup_raises(layer):
    with pytest.raises(ProfileError, match="not registered"):
        layer.catalog("toaster")


def test_add_device_of_unregistered_type_rejected(env, layer):
    class Toaster(PanTiltZoomCamera):
        device_type = "toaster"

    with pytest.raises(RegistrationError, match="register device type"):
        layer.add_device(Toaster(env, "t1", Point(0, 0)))


def test_cost_table_lookup(layer):
    table = layer.cost_table("camera")
    assert "capture_medium" in table


def test_remove_device(env, layer, lab):
    layer.remove_device("mote3")
    online = layer.registry.online_of_type("sensor")
    assert [d.device_id for d in online] == ["mote1", "mote2"]
