"""Scan retry behaviour: one transient failure does not drop a row."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeviceError
from repro.geometry import Point
from repro.devices import SensorMote
from tests.comm.conftest import run, scripted_motes


class FlakyMote(SensorMote):
    """Fails its first N sensory reads, then behaves."""

    def __init__(self, *args, failures=1, **kwargs):
        super().__init__(*args, **kwargs)
        self._failures_left = failures

    def read_sensory(self, name):
        if self._failures_left > 0:
            self._failures_left -= 1
            raise DeviceError(f"{self.device_id}: transient glitch")
        return super().read_sensory(name)


def test_single_transient_failure_retried(env, layer):
    layer.add_device(FlakyMote(env, "flaky", Point(0, 0),
                               noise_amplitude=0.0, failures=1))
    operator = layer.scan_operator("sensor")
    rows = run(env, operator.scan())
    assert [row.device_id for row in rows] == ["flaky"]
    assert operator.skipped == []


def test_persistent_failure_skips_with_reason(env, layer):
    layer.add_device(FlakyMote(env, "broken", Point(0, 0),
                               noise_amplitude=0.0, failures=100))
    operator = layer.scan_operator("sensor")
    rows = run(env, operator.scan())
    assert rows == []
    assert operator.skipped[0][0] == "broken"
    assert "glitch" in operator.skipped[0][1]


def test_retry_does_not_duplicate_rows(env, layer, lab):
    """Healthy devices appear exactly once even when another retries."""
    layer.add_device(FlakyMote(env, "flaky", Point(1, 1),
                               noise_amplitude=0.0, failures=1))
    operator = layer.scan_operator("sensor")
    rows = run(env, operator.scan())
    ids = [row.device_id for row in rows]
    assert sorted(ids) == ["flaky", "mote1", "mote2", "mote3"]
    assert len(ids) == len(set(ids))


# ----------------------------------------------------------------------
# Channel discipline: whatever breaks a row, and wherever, scan() hands
# back every channel it took — parked if the channel is sound, closed
# if it is not.
# ----------------------------------------------------------------------
class FaultyMote(SensorMote):
    """Runs ``on_read`` while handling the read it is told to."""

    fault_read = None
    on_read = None
    reads = 0

    def read_sensory(self, name):
        self.reads += 1
        if self.reads - 1 == self.fault_read:
            self.on_read()
        return super().read_sensory(name)


def _reject_read():
    raise DeviceError("sensor fault")


#: fault -> (the channel itself failed, rows the scan still returns).
FAULTS = {
    "lost_packet": (True, 3),           # silence, then a clean retry
    "device_error": (False, 3),         # ok=False, then a clean retry
    "offline_mid_exchange": (True, 2),  # gone before the downlink; stays gone
    "removed_mid_row": (False, 3),      # leaves the registry; keeps answering
}


@settings(max_examples=60, deadline=None)
@given(victim_index=st.integers(0, 2),
       fault=st.sampled_from(sorted(FAULTS)), warm=st.booleans())
def test_scan_returns_every_channel_it_took(victim_index, fault, warm):
    """The fault hits the victim row's one read_attributes exchange."""
    env, layer, motes, link, opened = scripted_motes(FaultyMote,
                                                     victim_index)
    victim = motes[victim_index]
    transport = layer.transport
    operator = layer.scan_operator("sensor")
    if warm:
        run(env, operator.scan())
        assert len(transport.pool) == 3

    if fault == "lost_packet":
        # A cold row's first exchange on the link is its handshake.
        link.lose_exchange = link.exchanges + (0 if warm else 1)
    else:
        victim.fault_read = victim.reads
        victim.on_read = {
            "device_error": _reject_read,
            "offline_mid_exchange": victim.go_offline,
            "removed_mid_row": lambda: layer.remove_device(victim.device_id),
        }[fault]
    def counted(name):
        return transport.obs.registry.totals().get(name, 0)

    connects = counted("comm.connects")
    hits = counted("comm.pool.hits")
    channel_failed, rows_expected = FAULTS[fault]

    rows = run(env, operator.scan())

    assert len(rows) == rows_expected
    assert len(operator.skipped) == 3 - rows_expected
    # The census of benchmarks/e2e/harness._leak_checks.
    parked = {id(entry.connection)
              for entry in transport.pool._idle.values()}
    assert {id(c) for c in opened if not c.closed} == parked
    first = next(c for c in opened if c.device is victim)
    handshakes = 0 if warm else 3
    if channel_failed:
        # Discarded, and the one retry pays a fresh handshake.
        assert first.closed
        assert counted("comm.pool.discarded") == 1
        assert counted("comm.connects") == connects + handshakes + 1
    else:
        # Parked: a device error's retry takes the same channel back.
        assert id(first) in parked
        assert counted("comm.pool.discarded") == 0
        assert counted("comm.connects") == connects + handshakes
        retried = fault == "device_error"
        assert counted("comm.pool.hits") \
            == hits + (3 if warm else 0) + retried


class BuggyMote(SensorMote):
    """A device model with a bug: its static row or its read raises
    something that is not a :class:`DeviceError`."""

    bug = None

    def static_attributes(self):
        if self.bug == "static":
            raise RuntimeError("static row bug")
        return super().static_attributes()

    def read_sensory(self, name):
        if self.bug == "read":
            raise RuntimeError("read bug")
        return super().read_sensory(name)


@pytest.mark.parametrize("bug", ["static", "read"])
@pytest.mark.parametrize("victim_index", [0, 2])
def test_an_unexpected_row_error_still_surfaces(bug, victim_index):
    """Only a :class:`DeviceError` skips a row: any other error is
    raised by the scan, and every channel the rows took is still parked,
    or closed when the error broke its exchange."""
    env, layer, motes, _link, opened = scripted_motes(BuggyMote,
                                                      victim_index)
    victim = motes[victim_index]
    victim.bug = bug
    transport = layer.transport
    with pytest.raises(RuntimeError, match=f"{bug} .*bug"):
        run(env, layer.scan_operator("sensor").scan())
    env.run()
    parked = {id(entry.connection)
              for entry in transport.pool._idle.values()}
    assert {id(c) for c in opened if not c.closed} == parked
    assert len(parked) == 2
    assert [c.closed for c in opened if c.device is victim] \
        == ([] if bug == "static" else [True])
