"""Unit tests for the probing mechanism (paper Section 4)."""

from collections import Counter

import pytest

from repro.devices.health import BreakerState, DeviceHealthTracker, HealthPolicy
from repro.network.message import Message, Response
from tests.comm.conftest import run


def probe_counts(layer):
    """(sent, failed) probes, from the layer's registry."""
    totals = Counter(layer.transport.obs.registry.totals())
    return totals["probe.sent"], totals["probe.failed"]


def test_probe_online_camera_succeeds(env, layer, lab):
    result = run(env, layer.probe(lab["cam1"]))
    assert result.available
    assert set(result.status) == {"pan", "tilt", "zoom"}
    assert result.round_trip_seconds > 0


def test_probe_offline_device_unavailable_after_timeout(env, layer, lab):
    lab["cam1"].go_offline()
    result = run(env, layer.probe(lab["cam1"]))
    assert not result.available
    assert "timed out" in result.error
    # The probe burned exactly the camera TIMEOUT (1.0 s by default).
    assert env.now == pytest.approx(1.0)


def test_probe_uses_per_type_timeouts(env, layer, lab):
    lab["phone1"].go_offline()
    result = run(env, layer.probe(lab["phone1"]))
    assert not result.available
    assert env.now == pytest.approx(2.0)  # phone TIMEOUT


def test_probe_all_runs_in_parallel(env, layer, lab):
    lab["cam1"].go_offline()
    lab["cam2"].go_offline()
    results = run(env, layer.prober.probe_all([lab["cam1"], lab["cam2"]]))
    assert [r.available for r in results] == [False, False]
    # Parallel probing: both timeouts overlap, total is one TIMEOUT.
    assert env.now == pytest.approx(1.0)


def test_available_devices_excludes_malfunctioning(env, layer, lab):
    lab["cam2"].crash()
    results = run(env, layer.prober.probe_all([lab["cam1"], lab["cam2"]]))
    assert [r.device_id for r in results if r.available] == ["cam1"]


def test_probe_counters(env, layer, lab):
    lab["cam2"].go_offline()
    run(env, layer.prober.probe_all([lab["cam1"], lab["cam2"]]))
    assert probe_counts(layer) == (2, 1)


def test_probe_returns_status_for_cost_model(env, layer, lab):
    result = run(env, layer.probe(lab["mote2"]))
    assert result.available
    assert result.status["hop_depth"] == 2.0


# ----------------------------------------------------------------------
# Failing-phase reporting
# ----------------------------------------------------------------------
def test_failed_probe_records_connect_phase(env, layer, lab):
    lab["cam1"].go_offline()
    result = run(env, layer.probe(lab["cam1"]))
    assert not result.available
    assert result.error.startswith("connect:")


def test_successful_probe_has_no_failed_phase(env, layer, lab):
    result = run(env, layer.probe(lab["cam1"]))
    assert result.available
    assert result.error == ""


class _FlakyStatusConnection:
    """Stub connection whose status exchange fails after a clean ping."""

    def __init__(self, env):
        self.env = env

    def request(self, message: Message, timeout):
        yield self.env.timeout(0.01)
        if message.kind == "status":
            return Response(device_id=message.device_id, ok=False,
                            error="status register corrupt")
        return Response(device_id=message.device_id, ok=True)

    def close(self):
        pass


def test_probe_records_later_phase_failures(env, layer, lab):
    class _FlakyTransport:
        def connect(self, device, timeout):
            yield env.timeout(0.01)
            return _FlakyStatusConnection(env)

        def open(self, device, timeout):
            return (yield from self.connect(device, timeout))

        def release(self, connection):
            connection.close()

        def discard(self, connection):
            connection.close()

    layer.prober.transport = _FlakyTransport()
    result = run(env, layer.probe(lab["cam1"]))
    assert not result.available
    assert result.error.startswith("status:")
    assert "status register corrupt" in result.error


# ----------------------------------------------------------------------
# probe_all ordering under mixed timeouts
# ----------------------------------------------------------------------
def test_probe_all_preserves_input_order_under_mixed_timeouts(
        env, layer, lab):
    # phone1 times out after 2.0s, mote1 after 0.5s, cameras answer
    # fast: completion order differs wildly from input order.
    lab["phone1"].go_offline()
    lab["mote1"].go_offline()
    devices = [lab["phone1"], lab["cam1"], lab["mote1"], lab["cam2"]]
    results = run(env, layer.prober.probe_all(devices))
    assert [r.device_id for r in results] \
        == ["phone1", "cam1", "mote1", "cam2"]
    assert [r.available for r in results] == [False, True, False, True]
    assert probe_counts(layer) == (4, 2)
    # Concurrent: total wall time is the slowest timeout, not the sum.
    assert env.now == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Phone coverage dropouts
# ----------------------------------------------------------------------
def test_phone_out_of_coverage_probes_unavailable(env, layer, lab):
    phone = lab["phone1"]
    phone.leave_coverage()
    result = run(env, layer.probe(phone))
    # Powered and healthy, but the carrier cannot page it.
    assert phone.online and not phone.reachable
    assert not result.available
    assert result.error.startswith("connect:")

    phone.enter_coverage()
    result = run(env, layer.probe(phone))
    assert result.available


def test_coverage_dropout_quarantines_then_readmits_phone(env, layer, lab):
    health = DeviceHealthTracker(
        env, HealthPolicy(failure_threshold=2, quarantine_seconds=5.0))
    layer.prober.health = health
    phone = lab["phone1"]
    phone.leave_coverage()
    run(env, layer.probe(phone))
    run(env, layer.probe(phone))
    # Two consecutive probe misses: the breaker opens.
    assert health.state_of("phone1") is BreakerState.OPEN
    assert not health.allow_candidate("phone1")

    phone.enter_coverage()
    env.run(until=env.now + 6.0)
    # Window expired: the phone is allowed back on probation, and the
    # probation probe succeeds, readmitting it.
    assert health.allow_candidate("phone1")
    result = run(env, layer.probe(phone))
    assert result.available
    assert health.state_of("phone1") is BreakerState.CLOSED
    assert health.obs.registry.totals()["health.readmissions"] == 1
