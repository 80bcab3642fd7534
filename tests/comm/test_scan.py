"""Unit tests for scan operators over virtual device tables."""

import pytest

from repro.errors import QueryError
from repro.devices import SensorStimulus
from tests.comm.conftest import run


def test_scan_sensor_table_produces_all_rows(env, layer, lab):
    operator = layer.scan_operator("sensor")
    rows = run(env, operator.scan())
    assert [row.device_id for row in rows] == ["mote1", "mote2", "mote3"]
    for row in rows:
        row.validate(layer.catalog("sensor"))


def test_scan_reads_live_sensory_values(env, layer, lab):
    lab["mote1"].inject(SensorStimulus("accel_x", start=0.0, duration=100.0,
                                       magnitude=800.0))
    operator = layer.scan_operator("sensor")
    rows = run(env, operator.scan())
    by_id = {row.device_id: row for row in rows}
    assert by_id["mote1"]["accel_x"] == pytest.approx(800.0)
    assert by_id["mote2"]["accel_x"] == pytest.approx(0.0)


def test_scan_includes_static_attributes(env, layer, lab):
    operator = layer.scan_operator("camera")
    rows = run(env, operator.scan())
    by_id = {row.device_id: row for row in rows}
    assert by_id["cam1"]["loc_x"] == 0.0
    assert by_id["cam2"]["loc_x"] == 20.0
    assert by_id["cam1"]["ip"]


def test_scan_skips_offline_devices(env, layer, lab):
    lab["mote2"].go_offline()
    operator = layer.scan_operator("sensor")
    rows = run(env, operator.scan())
    assert [row.device_id for row in rows] == ["mote1", "mote3"]


def test_scan_skips_dead_battery_device_with_reason(env, layer, lab):
    lab["mote3"].battery_volts = 1.5
    operator = layer.scan_operator("sensor")
    rows = run(env, operator.scan())
    assert [row.device_id for row in rows] == ["mote1", "mote2"]
    assert operator.skipped and operator.skipped[0][0] == "mote3"
    assert "battery dead" in operator.skipped[0][1]


def test_scan_acquires_rows_in_parallel(env, layer, lab):
    operator = layer.scan_operator("sensor")
    run(env, operator.scan())
    # 5 sensory attributes + connect = 6 round trips of 0.04 s each; a
    # sequential scan over three motes would take 3x as long.
    assert env.now < 0.3


@pytest.mark.parametrize("device_type", ["sensor", "camera"])
def test_scan_costs_two_kernel_events_per_exchange(env, layer, lab,
                                                   device_type):
    """A row makes its exchanges in its own process: uplink and
    downlink per sensory column, plus the row process's start and end.
    Nothing is spawned per exchange."""
    operator = layer.scan_operator(device_type)
    cold_rows = run(env, operator.scan())
    cold_end = env.now
    before = env.events_processed
    warm_rows = run(env, operator.scan())
    n = len(warm_rows)
    k = len(layer.catalog(device_type).sensory_attributes)
    own = 2  # conftest.run's process: its start and its end
    assert len(cold_rows) == n
    assert env.events_processed - before == 2 * n * k + 2 * n + own
    if device_type == "sensor":
        assert (n, k) == (3, 5)  # 38 events
        # Handshake + five round trips at 0.04 s; the warm scan skips
        # the handshake.
        assert cold_end == pytest.approx(0.24)
        assert env.now == pytest.approx(0.44)


def test_tuple_unknown_attribute_raises(env, layer, lab):
    operator = layer.scan_operator("camera")
    rows = run(env, operator.scan())
    with pytest.raises(QueryError, match="no attribute"):
        rows[0]["altitude"]
