"""Unit tests for scan operators over virtual device tables."""

import pytest

from repro.errors import QueryError
from repro.devices import SensorMote, SensorStimulus
from repro.geometry import Point
from tests.comm.conftest import LOSSLESS_LINKS, run


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


def test_scan_rereads_static_columns_after_an_in_place_remount(env, layer,
                                                                lab):
    """Static columns are read once per static epoch: a re-mount or
    re-address moves the epoch, so the next scan carries the new
    values."""
    operator = layer.scan_operator("camera")
    run(env, operator.scan())
    lab["cam2"].location = Point(35.0, 4.0)
    lab["cam1"].ip_address = "10.9.9.9"
    rows = {row.device_id: row for row in run(env, operator.scan())}
    assert (rows["cam2"]["loc_x"], rows["cam2"]["loc_y"]) == (35.0, 4.0)
    assert rows["cam1"]["ip"] == "10.9.9.9"


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
    # Connect + one read_attributes round trip = 0.08 s; a sequential
    # scan over three motes would take 3x as long.
    assert env.now < 0.1


@pytest.mark.parametrize("device_type", ["sensor", "camera"])
def test_scan_costs_two_kernel_events_per_exchange(env, layer, lab,
                                                   device_type):
    """A row is one exchange: uplink and downlink, whatever the number
    of sensory columns. The rows are one fan-out, whose start and end
    are the scan's only other events: nothing is spawned per row or per
    exchange."""
    operator = layer.scan_operator(device_type)
    cold_rows = run(env, operator.scan())
    cold_end = env.now
    before = env.events_processed
    warm_rows = run(env, operator.scan())
    n = len(warm_rows)
    k = len(layer.catalog(device_type).sensory_attributes)
    own = 1  # conftest.run's process: its start (a process has no end event)
    assert len(cold_rows) == n
    assert env.events_processed - before == 2 * n + 2 + own
    if device_type == "sensor":
        assert (n, k) == (3, 5)  # 9 events
        # Handshake + one round trip at 0.04 s each; the warm scan skips
        # the handshake.
        assert cold_end == pytest.approx(0.08)
        assert env.now == pytest.approx(0.12)


def test_projected_scan_reads_only_its_columns(env, layer, lab):
    """A narrowed scan acquires the projected sensory columns, in one
    exchange per row, and its rows carry those and the static ones."""
    operator = layer.scan_operator("sensor")
    operator.columns = ("accel_x",)
    requests = layer.transport.obs.registry.totals
    rows = run(env, operator.scan())
    assert requests()["comm.requests"] == 3
    assert set(rows[0].values) == {"id", "loc_x", "loc_y", "accel_x"}
    operator.columns = ()
    rows = run(env, operator.scan())
    assert requests()["comm.requests"] == 3  # nothing sensory: no exchange
    assert set(rows[0].values) == {"id", "loc_x", "loc_y"}


def test_failed_rows_retry_in_parallel(env, layer):
    """Three motes each lose their first attempt: the scan ends within
    one timeout plus one retry round trip, not three timeouts."""
    motes = [SensorMote(env, f"mote{i}", Point(i, 0), noise_amplitude=0.0)
             for i in range(3)]
    for mote in motes:
        layer.add_device(mote)
    transport = layer.transport
    lost = set()

    class FirstExchangeLost:
        def __init__(self, device):
            self.device = device

        def sample_latency(self, rng):
            return LOSSLESS_LINKS["sensor"].latency_seconds

        def drops(self, rng):
            first = self.device.device_id not in lost
            lost.add(self.device.device_id)
            return first

    transport.link_for = FirstExchangeLost
    operator = layer.scan_operator("sensor")
    rows = run(env, operator.scan())
    assert [row.device_id for row in rows] == ["mote0", "mote1", "mote2"]
    assert operator.skipped == []
    # Each lost handshake burns the timeout, then the retry connects
    # (0.04 s) and reads (0.04 s): all three at once.
    assert env.now == pytest.approx(operator.timeout + 0.08)
    assert env.now < 2 * operator.timeout


def test_scan_counts_rows_and_skips_by_device_type(env, layer, lab):
    lab["mote3"].battery_volts = 1.5
    operator = layer.scan_operator("sensor")
    run(env, operator.scan())
    run(env, operator.scan())
    series = dict(
        (labels["device_type"], counter.value) for labels, counter
        in layer.transport.obs.registry.labeled("comm.scan.rows"))
    skipped = dict(
        (labels["device_type"], counter.value) for labels, counter
        in layer.transport.obs.registry.labeled("comm.scan.rows_skipped"))
    assert series == {"sensor": 4} and skipped == {"sensor": 2}


def test_tuple_unknown_attribute_raises(env, layer, lab):
    operator = layer.scan_operator("camera")
    rows = run(env, operator.scan())
    with pytest.raises(QueryError, match="no attribute"):
        rows[0]["altitude"]
