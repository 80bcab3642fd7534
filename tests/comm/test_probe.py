"""Unit tests for the probing mechanism (paper Section 4)."""

from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.devices import SensorMote
from repro.devices.health import BreakerState, DeviceHealthTracker, HealthPolicy
from repro.errors import DeviceError
from repro.network.message import Message, Response
from repro.obs import Observability
from tests.comm.conftest import run, scripted_motes


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

    def __init__(self, env, device):
        self.env = env
        self.device = device
        self.closed = False

    def request(self, message: Message, timeout):
        yield self.env.timeout(0.01)
        if message.kind == "status":
            return Response(device_id=message.device_id, ok=False,
                            error="status register corrupt")
        return Response(device_id=message.device_id, ok=True)

    def close(self):
        self.closed = True


def test_probe_records_later_phase_failures(env, layer, lab):
    def flaky_connect(device, timeout):
        yield env.timeout(0.01)
        return _FlakyStatusConnection(env, device)

    layer.transport.connect = flaky_connect
    result = run(env, layer.probe(lab["cam1"]))
    assert not result.available
    assert result.error.startswith("status:")
    assert "status register corrupt" in result.error


# ----------------------------------------------------------------------
# Channel discipline: whatever breaks a probe, and wherever, the probe
# hands back every channel it took — parked if the device answered,
# closed if the channel itself broke.
# ----------------------------------------------------------------------
class FaultyMote(SensorMote):
    """Runs ``on_status`` while handling its next status request."""

    on_status = None

    def physical_status(self):
        if self.on_status is not None:
            hook, self.on_status = self.on_status, None
            hook()
        return super().physical_status()


def _refuse_status():
    raise DeviceError("status register corrupt")


#: fault -> (phase, error detail, what became of the victim's channel:
#: "parked", "discarded", or None when no channel was opened).
PROBE_FAULTS = {
    "lost_handshake": ("connect", "connect to {id!r} timed out after "
                       "0.5 s", None),
    "lost_ping": ("ping", "device {id!r} did not answer within 0.5 s",
                  "discarded"),
    "lost_status": ("status", "device {id!r} did not answer within 0.5 s",
                    "discarded"),
    "refused_status": ("status", "status failed: status register corrupt",
                       "parked"),
    "offline_mid_status": ("status", "device {id!r} went away "
                           "mid-exchange", "discarded"),
}


@settings(max_examples=60, deadline=None)
@given(victim_index=st.integers(0, 2),
       fault=st.sampled_from(sorted(PROBE_FAULTS)), warm=st.booleans())
def test_probe_returns_every_channel_it_took(victim_index, fault, warm):
    """The fault hits one step of the victim's ping + status exchange."""
    assume(not (warm and fault == "lost_handshake"))
    env, layer, motes, link, opened = scripted_motes(FaultyMote,
                                                     victim_index)
    victim = motes[victim_index]
    transport = layer.transport
    if warm:
        run(env, layer.prober.probe_all(motes))
        assert len(transport.pool) == 3

    # A cold probe's first exchange on the link is its handshake.
    step = {"lost_handshake": 0, "lost_ping": 1, "lost_status": 2}
    if fault in step:
        link.lose_exchange = link.exchanges + step[fault] - warm
    else:
        victim.on_status = {"refused_status": _refuse_status,
                            "offline_mid_status": victim.go_offline}[fault]
    discarded = transport.obs.registry.totals().get("comm.pool.discarded", 0)

    results = run(env, layer.prober.probe_all(motes))

    phase, detail, channel = PROBE_FAULTS[fault]
    assert [result.available for result in results] \
        == [mote is not victim for mote in motes]
    assert results[victim_index].error \
        == f"{phase}: {detail.format(id=victim.device_id)}"
    assert [labels["phase"] for labels, _ in
            transport.obs.registry.labeled("probe.failed")] == [phase]
    # The census of benchmarks/e2e/harness._leak_checks.
    parked = {id(entry.connection)
              for entry in transport.pool._idle.values()}
    assert {id(c) for c in opened if not c.closed} == parked
    victims = [c for c in opened if c.device is victim]
    assert len(parked) == 3 - (channel != "parked")
    assert transport.obs.registry.totals().get("comm.pool.discarded", 0) \
        == discarded + (channel == "discarded")
    if channel is None:
        assert victims == []
    else:
        assert len(victims) == 1
        assert (id(victims[0]) in parked) == (channel == "parked")


def _raise_bug():
    raise RuntimeError("status bug")


@pytest.mark.parametrize("victim_index", [0, 2])
def test_an_unexpected_probe_error_still_surfaces(victim_index):
    """A probe turns every communication failure into an unavailable
    result; any other error is raised by ``probe_all``, and every
    channel the probes took is still parked, or closed when the error
    broke its exchange."""
    env, layer, motes, _link, opened = scripted_motes(FaultyMote,
                                                      victim_index)
    victim = motes[victim_index]
    victim.on_status = _raise_bug
    transport = layer.transport
    with pytest.raises(RuntimeError, match="status bug"):
        run(env, layer.prober.probe_all(motes))
    env.run()
    parked = {id(entry.connection)
              for entry in transport.pool._idle.values()}
    assert {id(c) for c in opened if not c.closed} == parked
    assert len(parked) == 2
    assert [c.closed for c in opened if c.device is victim] == [True]


def test_probe_batch_costs_two_kernel_events_per_round_trip(env, layer, lab):
    """A warm probe is one exchange of two round trips, uplink and
    downlink each. The batch is one fan-out, whose start and end are its
    only other events: nothing is spawned per probe."""
    cameras = [lab["cam1"], lab["cam2"]]
    run(env, layer.prober.probe_all(cameras))
    before = env.events_processed
    results = run(env, layer.prober.probe_all(cameras))
    n = len(results)
    own = 1  # conftest.run's process: its start (a process has no end event)
    assert [result.available for result in results] == [True, True]
    assert env.events_processed - before == 4 * n + 2 + own  # 11


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
        env, HealthPolicy(failure_threshold=2, quarantine_seconds=5.0),
        obs=Observability(env))
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
