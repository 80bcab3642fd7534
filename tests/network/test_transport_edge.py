"""Edge cases: devices vanishing mid-exchange, pipelined failures."""

import random

import pytest

from repro.errors import ConnectionTimeoutError
from repro.geometry import Point
from repro.devices import PanTiltZoomCamera
from repro.network import LinkModel, Message, Transport
from repro.obs import Observability
from repro.sim import Environment


def setup():
    env = Environment()
    transport = Transport(
        env, links={"camera": LinkModel(latency_seconds=0.01)},
        rng=random.Random(0), obs=Observability(env))
    camera = PanTiltZoomCamera(env, "cam1", Point(0, 0))
    return env, transport, camera


def test_device_vanishing_mid_execute_times_out():
    env, transport, camera = setup()
    outcomes = []

    def requester(env):
        connection = yield from transport.connect(camera, timeout=1.0)
        try:
            # Uplink lands at 0.03 s, downlink at 0.04 s; the camera
            # dies in between, after it has handled the message.
            yield from connection.request(Message(
                kind="status", device_id="cam1"), timeout=1.0)
        except ConnectionTimeoutError as exc:
            outcomes.append(str(exc))

    def killer(env):
        yield env.timeout(0.035)
        camera.go_offline()

    env.process(requester(env))
    env.process(killer(env))
    env.run()
    assert len(outcomes) == 1
    assert "went away mid-exchange" in outcomes[0]


def test_connect_succeeds_then_device_recovers_for_request():
    env, transport, camera = setup()
    results = []

    def requester(env):
        connection = yield from transport.connect(camera, timeout=1.0)
        yield env.timeout(5.0)  # hold the connection across an outage
        response = yield from connection.request(Message(
            kind="ping", device_id="cam1"), timeout=1.0)
        results.append(response.ok)

    def flapper(env):
        yield env.timeout(1.0)
        camera.go_offline()
        yield env.timeout(1.0)
        camera.go_online()

    env.process(requester(env))
    env.process(flapper(env))
    env.run()
    assert results == [True]


def test_handshake_slower_than_timeout_fails():
    env = Environment()
    # 0.3 s one-way latency but only 0.1 s of patience.
    transport = Transport(
        env, links={"camera": LinkModel(latency_seconds=0.3)},
        rng=random.Random(0), obs=Observability(env))
    camera = PanTiltZoomCamera(env, "cam1", Point(0, 0))

    def proc(env):
        with pytest.raises(ConnectionTimeoutError):
            yield from transport.connect(camera, timeout=0.1)

    env.process(proc(env))
    env.run()
    assert env.now == pytest.approx(0.1)  # burned exactly the timeout
