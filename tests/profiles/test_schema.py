"""Unit tests for device catalogs and attribute specs."""

import pytest

from repro.errors import ProfileError
from repro.profiles import AttributeSpec, DeviceCatalog


def make_catalog():
    return DeviceCatalog(
        device_type="sensor",
        model="MICA2",
        attributes=[
            AttributeSpec("id", "int", sensory=False),
            AttributeSpec("loc_x", "float", sensory=False),
            AttributeSpec(
                "accel_x", "float", sensory=True, unit="mg",
                acquisition_method="read_accel_x",
            ),
            AttributeSpec(
                "battery", "float", sensory=True, unit="V",
                acquisition_method="read_battery",
            ),
        ],
    )


def test_attribute_lookup():
    catalog = make_catalog()
    assert catalog.attribute("accel_x").unit == "mg"
    assert catalog.has_attribute("battery")
    assert not catalog.has_attribute("missing")


def test_unknown_attribute_raises():
    with pytest.raises(ProfileError, match="no attribute"):
        make_catalog().attribute("nope")


def test_sensory_split():
    catalog = make_catalog()
    assert [a.name for a in catalog.sensory_attributes] == ["accel_x", "battery"]
    assert [a.name for a in catalog.non_sensory_attributes] == ["id", "loc_x"]


def test_duplicate_attribute_rejected():
    with pytest.raises(ProfileError, match="duplicate"):
        DeviceCatalog(
            device_type="sensor",
            attributes=[
                AttributeSpec("id", "int", sensory=False),
                AttributeSpec("id", "float", sensory=False),
            ],
        )


def test_bad_type_rejected():
    with pytest.raises(ProfileError, match="unsupported type"):
        AttributeSpec("x", "decimal", sensory=False)


def test_bad_name_rejected():
    with pytest.raises(ProfileError, match="not an identifier"):
        AttributeSpec("3bad", "int", sensory=False)


def test_sensory_needs_acquisition_method():
    with pytest.raises(ProfileError, match="acquisition_method"):
        AttributeSpec("temp", "float", sensory=True)


def test_bad_device_type_rejected():
    with pytest.raises(ProfileError, match="not an identifier"):
        DeviceCatalog(device_type="bad type")
