"""Consistency tests: built-in profiles match the device simulators."""

import pytest

from repro.devices.camera import CALIBRATION
from repro.actions.builtins import builtin_definitions, sendphoto_definition
from repro.profiles import (
    action_profile_from_xml,
    action_profile_to_xml,
    catalog_from_xml,
    catalog_to_xml,
    cost_table_from_xml,
    cost_table_to_xml,
)
from repro.profiles.defaults import (
    camera_catalog,
    camera_cost_table,
    phone_catalog,
    phone_cost_table,
    sensor_catalog,
    sensor_cost_table,
)


def test_camera_cost_table_matches_calibration():
    cal = CALIBRATION
    table = camera_cost_table()
    assert table.estimate("connect") == cal.connect_seconds
    assert table.estimate("pan", cal.pan_max - cal.pan_min) == (
        pytest.approx((cal.pan_max - cal.pan_min) / cal.pan_speed))
    assert table.estimate("capture_medium") == cal.capture_seconds["medium"]
    # Fixed photo cost (connect + capture + store) is the paper's 0.36 s.
    fixed = (table.estimate("connect") + table.estimate("capture_medium")
             + table.estimate("store"))
    assert fixed == pytest.approx(0.36)


def test_builtin_profiles_validate_against_their_cost_tables():
    tables = {"camera": camera_cost_table(), "sensor": sensor_cost_table(),
              "phone": phone_cost_table()}
    for definition in builtin_definitions() + [sendphoto_definition()]:
        definition.profile.validate_against(tables[definition.device_type])


def test_catalogs_expose_location_columns():
    for catalog in (camera_catalog(), sensor_catalog(), phone_catalog()):
        assert catalog.has_attribute("loc_x")
        assert catalog.has_attribute("loc_y")
        assert catalog.has_attribute("id")


def test_sensor_catalog_covers_figure_1_attributes():
    catalog = sensor_catalog()
    assert catalog.attribute("accel_x").sensory
    assert not catalog.attribute("id").sensory


def test_default_profiles_round_trip_through_xml():
    """The shipped profiles serialize like the prototype's XML files."""
    for catalog in (camera_catalog(), sensor_catalog(), phone_catalog()):
        assert catalog_from_xml(catalog_to_xml(catalog)) == catalog
    for table in (camera_cost_table(), sensor_cost_table(),
                  phone_cost_table()):
        restored = cost_table_from_xml(cost_table_to_xml(table))
        assert restored.operations == table.operations
    for definition in builtin_definitions():
        profile = definition.profile
        assert action_profile_from_xml(
            action_profile_to_xml(profile)) == profile


def test_sensor_connect_cost_is_per_hop():
    table = sensor_cost_table()
    assert table.estimate("connect", 1) == pytest.approx(0.02)
    assert table.estimate("connect", 4) == pytest.approx(0.08)
