"""Unit tests for the communication-layer facade."""

import gc

import pytest

from repro.errors import ProfileError, RegistrationError
from repro.geometry import Point
from repro.devices import PanTiltZoomCamera
from tests.comm.conftest import run


def test_registered_types(layer):
    """One registration fills the layer's three per-type dicts, which
    are the only copy of a type's profiles."""
    for store in (layer.catalogs, layer.cost_tables, layer.probe_timeouts):
        assert sorted(store) == ["camera", "phone", "sensor"]
    assert layer.prober.timeouts is layer.probe_timeouts
    assert layer.probe_timeouts == {"camera": 1.0, "sensor": 0.5,
                                    "phone": 2.0}


def test_duplicate_type_registration_rejected(layer):
    """The one refusal of a second registration of a type (the schema
    catalog and the cost model no longer register anything)."""
    from repro.profiles.defaults import camera_catalog, camera_cost_table
    before = layer.cost_tables["camera"]
    with pytest.raises(RegistrationError, match="already registered"):
        layer.register_device_type(camera_catalog(), camera_cost_table())
    assert layer.cost_tables["camera"] is before


def test_unknown_type_lookup_raises(layer):
    with pytest.raises(ProfileError, match="not registered"):
        layer.catalog("toaster")


def test_add_device_of_unregistered_type_rejected(env, layer):
    class Toaster(PanTiltZoomCamera):
        device_type = "toaster"

    with pytest.raises(RegistrationError, match="register device type"):
        layer.add_device(Toaster(env, "t1", Point(0, 0)))


def test_cost_table_lookup(layer):
    table = layer.cost_tables["camera"]
    assert "capture_medium" in table


def test_remove_device(env, layer, lab):
    layer.remove_device("mote3")
    online = layer.registry.online_of_type("sensor")
    assert [d.device_id for d in online] == ["mote1", "mote2"]


def test_scans_and_probe_batches_leave_no_cycles(env, layer, lab):
    """The row and probe paths build no reference cycle (a driver that
    caches its own bound method is one), so the cycle collector finds
    nothing to free after them: its pauses cannot grow with rows."""
    scans = [layer.scan_operator(device_type)
             for device_type in ("sensor", "camera")]
    devices = list(lab.values())

    def batch():
        for scan in scans:
            run(env, scan.scan())
        run(env, layer.prober.probe_all(devices))

    batch()  # warm: channels parked, static columns and messages built
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            batch()
        assert gc.collect() == 0
    finally:
        gc.enable()
