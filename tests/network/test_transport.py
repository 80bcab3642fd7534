"""Unit tests for the simulated transport."""

import random

import pytest

from repro.errors import CommunicationError, ConnectionTimeoutError
from repro.geometry import Point
from repro.devices import PanTiltZoomCamera, SensorMote
from repro.network import LinkModel, Message, Transport
from repro.obs import Observability
from repro.sim import Environment

LOSSLESS = {
    "camera": LinkModel(latency_seconds=0.005),
    "sensor": LinkModel(latency_seconds=0.02),
}


def setup():
    env = Environment()
    transport = Transport(env, links=dict(LOSSLESS), rng=random.Random(0),
                          obs=Observability(env))
    camera = PanTiltZoomCamera(env, "cam1", Point(0, 0))
    return env, transport, camera


def run_collect(env, generator):
    """Run a generator process to completion, returning its value."""
    box = []

    def proc(env):
        value = yield from generator
        box.append(value)

    env.process(proc(env))
    env.run()
    return box[0]


def test_connect_returns_connection():
    env, transport, camera = setup()
    connection = run_collect(env, transport.connect(camera, timeout=1.0))
    assert connection.device is camera
    assert env.now == pytest.approx(0.010)  # two one-way latencies


def test_connect_offline_device_burns_timeout():
    env, transport, camera = setup()
    camera.go_offline()

    def proc(env):
        try:
            yield from transport.connect(camera, timeout=1.0)
        except ConnectionTimeoutError:
            pass
        else:  # pragma: no cover
            pytest.fail("expected timeout")

    env.process(proc(env))
    env.run()
    assert env.now == pytest.approx(1.0)


def test_connect_invalid_timeout_rejected():
    env, transport, camera = setup()
    with pytest.raises(CommunicationError, match="timeout"):
        next(transport.connect(camera, timeout=0))


def test_unregistered_device_type_rejected():
    env = Environment()
    transport = Transport(env, links={}, rng=random.Random(0),
                          obs=Observability(env))
    camera = PanTiltZoomCamera(env, "cam1", Point(0, 0))
    with pytest.raises(CommunicationError, match="no link model"):
        transport.link_for(camera)


def test_ping_round_trip():
    env, transport, camera = setup()

    def proc(env):
        connection = yield from transport.connect(camera, timeout=1.0)
        response = yield from connection.request(
            Message(kind="ping", device_id="cam1"), timeout=1.0)
        assert response.ok
        assert response.value["device_type"] == "camera"
        assert response.round_trip_seconds == pytest.approx(0.010)
        connection.close()

    env.process(proc(env))
    env.run()


def test_status_request_returns_physical_status():
    env, transport, camera = setup()

    def proc(env):
        connection = yield from transport.connect(camera, timeout=1.0)
        response = yield from connection.request(
            Message(kind="status", device_id="cam1"), timeout=1.0)
        assert set(response.value) == {"pan", "tilt", "zoom"}

    env.process(proc(env))
    env.run()


def test_device_error_becomes_not_ok_response():
    env, transport, camera = setup()

    def proc(env):
        connection = yield from transport.connect(camera, timeout=1.0)
        response = yield from connection.request(
            Message(kind="read_attributes", device_id="cam1",
                    payload={"names": ("pan", "altitude")}), timeout=1.0)
        assert not response.ok
        assert "no sensory attribute" in response.error

    env.process(proc(env))
    env.run()


def test_read_attributes_answers_every_name_in_one_round_trip():
    env, transport, camera = setup()

    def proc(env):
        connection = yield from transport.connect(camera, timeout=1.0)
        response = yield from connection.request(
            Message(kind="read_attributes", device_id="cam1",
                    payload={"names": ("pan", "zoom")}), timeout=1.0)
        assert response.ok
        assert response.value == {"pan": camera.read_sensory("pan"),
                                  "zoom": camera.read_sensory("zoom")}
        assert transport.obs.registry.totals()["comm.requests"] == 1

    env.process(proc(env))
    env.run()


def test_read_attribute_is_not_a_message_kind():
    with pytest.raises(CommunicationError, match="unknown message kind"):
        Message(kind="read_attribute", device_id="cam1")


def test_request_on_closed_connection_rejected():
    env, transport, camera = setup()

    def proc(env):
        connection = yield from transport.connect(camera, timeout=1.0)
        connection.close()
        with pytest.raises(CommunicationError, match="closed connection"):
            next(connection.request(
                Message(kind="ping", device_id="cam1"), timeout=1.0))

    env.process(proc(env))
    env.run()


def test_misaddressed_message_rejected():
    env, transport, camera = setup()

    def proc(env):
        connection = yield from transport.connect(camera, timeout=1.0)
        with pytest.raises(CommunicationError, match="addressed to"):
            next(connection.request(
                Message(kind="ping", device_id="other"), timeout=1.0))

    env.process(proc(env))
    env.run()


def test_lossy_link_times_out_sometimes():
    env = Environment()
    transport = Transport(
        env,
        links={"sensor": LinkModel(latency_seconds=0.02, loss_rate=0.5)},
        rng=random.Random(3),
        obs=Observability(env),
    )
    mote = SensorMote(env, "m1", Point(0, 0))
    outcomes = []

    def proc(env):
        for _ in range(20):
            try:
                connection = yield from transport.connect(mote, timeout=0.5)
                connection.close()
                outcomes.append("ok")
            except ConnectionTimeoutError:
                outcomes.append("timeout")

    env.process(proc(env))
    env.run()
    assert "timeout" in outcomes and "ok" in outcomes


def test_unknown_message_kind_rejected_at_construction():
    with pytest.raises(CommunicationError, match="unknown message kind"):
        Message(kind="warp", device_id="cam1")


def test_execute_is_not_a_message_kind():
    """Operations run on the device model; none crosses the transport."""
    with pytest.raises(CommunicationError, match="unknown message kind"):
        Message(kind="execute", device_id="cam1",
                payload={"operation": "store"})
