"""Built-in profiles for the three device types of the paper's testbed.

The atomic-operation costs here are the "estimated costs ... measured by
our homegrown programs" of Section 3.1 — in this reproduction they are
derived from the device simulators' calibration constants, so estimates
and simulated reality agree by construction (the paper validated its
cost model the same way, against measurements of the real devices).
"""

from __future__ import annotations

from repro.devices.camera import CALIBRATION
from repro.devices.phone import MMS_FIXED_SECONDS, MMS_PER_KB_SECONDS, SMS_SECONDS
from repro.profiles.cost_table import AtomicOperationCost, CostTable
from repro.profiles.schema import AttributeSpec, DeviceCatalog


def camera_catalog() -> DeviceCatalog:
    """The ``camera`` virtual table: identity plus live head pose."""
    return DeviceCatalog(
        device_type="camera",
        model="AXIS 2130 PTZ",
        description="pan/tilt/zoom network camera",
        attributes=[
            AttributeSpec("id", "str", sensory=False,
                          description="device identifier"),
            AttributeSpec("ip", "str", sensory=False,
                          description="management IP address"),
            AttributeSpec("loc_x", "float", sensory=False, unit="m"),
            AttributeSpec("loc_y", "float", sensory=False, unit="m"),
            AttributeSpec("pan", "float", sensory=True, unit="deg",
                          acquisition_method="read_pan"),
            AttributeSpec("tilt", "float", sensory=True, unit="deg",
                          acquisition_method="read_tilt"),
            AttributeSpec("zoom", "float", sensory=True, unit="x",
                          acquisition_method="read_zoom"),
        ],
    )


def camera_cost_table() -> CostTable:
    """Atomic-operation costs of the PTZ camera (``CALIBRATION``'s).

    Head-axis operations carry per-degree (per-zoom-unit) costs; the
    photo action profile composes them in parallel, which reproduces
    the slowest-axis-dominates movement time of the real camera.
    """
    cal = CALIBRATION
    return CostTable.from_operations("camera", [
        AtomicOperationCost("connect", fixed_seconds=cal.connect_seconds,
                            description="open HTTP control channel"),
        AtomicOperationCost("pan", fixed_seconds=0.0,
                            per_unit_seconds=1.0 / cal.pan_speed,
                            unit="degrees", description="pan the head"),
        AtomicOperationCost("tilt", fixed_seconds=0.0,
                            per_unit_seconds=1.0 / cal.tilt_speed,
                            unit="degrees", description="tilt the head"),
        AtomicOperationCost("zoom", fixed_seconds=0.0,
                            per_unit_seconds=1.0 / cal.zoom_speed,
                            unit="factor", description="change zoom"),
        AtomicOperationCost("capture_small",
                            fixed_seconds=cal.capture_seconds["small"],
                            description="take a small photo"),
        AtomicOperationCost("capture_medium",
                            fixed_seconds=cal.capture_seconds["medium"],
                            description="take a medium photo"),
        AtomicOperationCost("capture_large",
                            fixed_seconds=cal.capture_seconds["large"],
                            description="take a large photo"),
        AtomicOperationCost("store", fixed_seconds=cal.store_seconds,
                            description="store the image file"),
    ])


def sensor_catalog() -> DeviceCatalog:
    """The ``sensor`` virtual table: identity, location, live readings."""
    return DeviceCatalog(
        device_type="sensor",
        model="MICA2 + MTS310CA",
        description="Berkeley mote with sensor board",
        attributes=[
            AttributeSpec("id", "str", sensory=False),
            AttributeSpec("loc_x", "float", sensory=False, unit="m"),
            AttributeSpec("loc_y", "float", sensory=False, unit="m"),
            AttributeSpec("accel_x", "float", sensory=True, unit="mg",
                          acquisition_method="read_accel_x"),
            AttributeSpec("accel_y", "float", sensory=True, unit="mg",
                          acquisition_method="read_accel_y"),
            AttributeSpec("temperature", "float", sensory=True, unit="C",
                          acquisition_method="read_temperature"),
            AttributeSpec("light", "float", sensory=True, unit="lux",
                          acquisition_method="read_light"),
            AttributeSpec("battery", "float", sensory=True, unit="V",
                          acquisition_method="read_battery"),
        ],
    )


def sensor_cost_table() -> CostTable:
    """Atomic-operation costs of a MICA2 mote.

    Connecting costs time per hop: "the depth of a sensor in a
    multi-hop network affects the cost of connecting the sensor"
    (Section 2.3).
    """
    return CostTable.from_operations("sensor", [
        AtomicOperationCost("connect", fixed_seconds=0.0,
                            per_unit_seconds=0.02, unit="hops",
                            description="establish multi-hop route"),
        AtomicOperationCost("read_sample", fixed_seconds=0.01,
                            description="sample all sensors once"),
        AtomicOperationCost("beep", fixed_seconds=0.5,
                            description="sound the buzzer once"),
        AtomicOperationCost("blink", fixed_seconds=0.25,
                            description="flash the LEDs once"),
    ])


def phone_catalog() -> DeviceCatalog:
    """The ``phone`` virtual table: number plus live reachability."""
    return DeviceCatalog(
        device_type="phone",
        model="MMS-capable handset",
        attributes=[
            AttributeSpec("id", "str", sensory=False),
            AttributeSpec("number", "str", sensory=False),
            AttributeSpec("mms_support", "bool", sensory=False),
            AttributeSpec("loc_x", "float", sensory=False, unit="m"),
            AttributeSpec("loc_y", "float", sensory=False, unit="m"),
            AttributeSpec("battery", "float", sensory=True, unit="%",
                          acquisition_method="read_battery"),
            AttributeSpec("in_coverage", "bool", sensory=True,
                          acquisition_method="read_coverage"),
        ],
    )


def phone_cost_table() -> CostTable:
    """Atomic-operation costs of a phone over the carrier network."""
    return CostTable.from_operations("phone", [
        AtomicOperationCost("connect", fixed_seconds=0.3,
                            description="page through the carrier"),
        AtomicOperationCost("receive_sms", fixed_seconds=SMS_SECONDS,
                            description="deliver a text message"),
        AtomicOperationCost("receive_mms", fixed_seconds=MMS_FIXED_SECONDS,
                            per_unit_seconds=MMS_PER_KB_SECONDS,
                            unit="kilobytes",
                            description="deliver a multimedia message"),
    ])


def register_builtin_types(layer) -> None:
    """Register all three built-in device types on a CommunicationLayer."""
    layer.register_device_type(camera_catalog(), camera_cost_table())
    layer.register_device_type(sensor_catalog(), sensor_cost_table())
    layer.register_device_type(phone_catalog(), phone_cost_table())
