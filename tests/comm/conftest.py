"""Shared fixtures for communication-layer tests: a small pervasive lab."""

import random

import pytest

from repro.geometry import Point
from repro.devices import MobilePhone, PanTiltZoomCamera, SensorMote
from repro.comm import CommunicationLayer
from repro.network import LinkModel
from repro.obs import Observability
from repro.profiles.defaults import register_builtin_types
from repro.sim import Environment

#: Deterministic lossless links so timing assertions are exact.
LOSSLESS_LINKS = {
    "camera": LinkModel(latency_seconds=0.005),
    "sensor": LinkModel(latency_seconds=0.02),
    "phone": LinkModel(latency_seconds=0.3),
}


class ScriptedLink:
    """The lossless sensor link, losing only the exchange it is told to."""

    def __init__(self):
        self.lose_exchange = None
        self.exchanges = 0

    def sample_latency(self, rng):
        return LOSSLESS_LINKS["sensor"].latency_seconds

    def drops(self, rng):
        self.exchanges += 1
        return self.exchanges - 1 == self.lose_exchange


def scripted_motes(mote_class, victim_index):
    """Three noiseless motes of ``mote_class`` on a fresh lossless layer;
    the victim's link is a :class:`ScriptedLink`. Returns ``(env, layer,
    motes, link, opened)``, where ``opened`` records every connection
    the transport builds."""
    env = Environment()
    layer = CommunicationLayer(env, links=dict(LOSSLESS_LINKS),
                               rng=random.Random(0), obs=Observability(env))
    register_builtin_types(layer)
    motes = [mote_class(env, f"mote{i}", Point(i, 0), noise_amplitude=0.0)
             for i in range(3)]
    for mote in motes:
        layer.add_device(mote)
    victim = motes[victim_index]
    transport = layer.transport
    link, lossless = ScriptedLink(), transport.links["sensor"]
    transport.link_for = lambda device: (
        link if device is victim else lossless)
    opened = []
    connect = transport.connect

    def recording_connect(device, timeout):
        connection = yield from connect(device, timeout)
        opened.append(connection)
        return connection

    transport.connect = recording_connect
    return env, layer, motes, link, opened


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def layer(env):
    layer = CommunicationLayer(env, links=dict(LOSSLESS_LINKS),
                               rng=random.Random(0), obs=Observability(env))
    register_builtin_types(layer)
    return layer


@pytest.fixture
def lab(env, layer):
    """Two cameras, three motes, one phone — a miniature pervasive lab."""
    devices = {
        "cam1": PanTiltZoomCamera(env, "cam1", Point(0, 0)),
        "cam2": PanTiltZoomCamera(env, "cam2", Point(20, 0), facing=180.0),
        "mote1": SensorMote(env, "mote1", Point(5, 5),
                            noise_amplitude=0.0, rng=random.Random(1)),
        "mote2": SensorMote(env, "mote2", Point(10, 5), hop_depth=2,
                            noise_amplitude=0.0, rng=random.Random(2)),
        "mote3": SensorMote(env, "mote3", Point(15, 5), hop_depth=3,
                            noise_amplitude=0.0, rng=random.Random(3)),
        "phone1": MobilePhone(env, "phone1", Point(0, 0),
                              number="+85290000000"),
    }
    for device in devices.values():
        layer.add_device(device)
    return devices


def run(env, generator):
    """Run a generator to completion inside the simulation; return value."""
    box = []

    def proc(env):
        value = yield from generator
        box.append(value)

    env.process(proc(env))
    env.run()
    return box[0] if box else None
