"""Unit tests for the MICA2 sensor mote simulator."""

import random

import pytest

from repro.errors import CommunicationError, DeviceError
from repro.geometry import Point
from repro.devices import SensorMote, SensorStimulus
from repro.devices.sensor import BATTERY_FULL_VOLTS, BASELINES
from repro.sim import Environment


def make_mote(env, **kwargs):
    kwargs.setdefault("rng", random.Random(42))
    return SensorMote(env, "mote1", Point(1, 2), **kwargs)


def test_baseline_readings_near_baseline():
    env = Environment()
    mote = make_mote(env, noise_amplitude=0.0)
    for name, baseline in BASELINES.items():
        assert mote.read_sensory(name) == pytest.approx(baseline)


def test_noise_perturbs_readings():
    env = Environment()
    mote = make_mote(env, noise_amplitude=5.0)
    values = {mote.read_sensory("temperature") for _ in range(10)}
    assert len(values) > 1


def test_stimulus_raises_reading_while_active():
    env = Environment()
    mote = make_mote(env, noise_amplitude=0.0)
    mote.inject(SensorStimulus("accel_x", start=10.0, duration=5.0,
                               magnitude=800.0))
    assert mote.read_sensory("accel_x") == pytest.approx(0.0)

    def proc(env):
        yield env.timeout(12.0)
        assert mote.read_sensory("accel_x") == pytest.approx(800.0)
        yield env.timeout(5.0)
        assert mote.read_sensory("accel_x") == pytest.approx(0.0)

    env.process(proc(env))
    env.run()


def test_overlapping_stimuli_add():
    env = Environment()
    mote = make_mote(env, noise_amplitude=0.0)
    mote.inject(SensorStimulus("light", start=0.0, duration=10.0, magnitude=100))
    mote.inject(SensorStimulus("light", start=0.0, duration=10.0, magnitude=50))
    assert mote.read_sensory("light") == pytest.approx(BASELINES["light"] + 150)


def test_stimulus_unknown_attribute_rejected():
    with pytest.raises(DeviceError, match="not a sensory reading"):
        SensorStimulus("voltage", start=0, duration=1, magnitude=1)


def test_stimulus_nonpositive_duration_rejected():
    with pytest.raises(DeviceError, match="duration"):
        SensorStimulus("light", start=0, duration=0, magnitude=1)


def test_read_drops_expired_stimuli():
    """A read forgets what can never be active again and keeps the
    rest, the not-yet-started included."""
    env = Environment()
    mote = make_mote(env, noise_amplitude=0.0)
    late = SensorStimulus("light", start=100.0, duration=1.0, magnitude=7)
    early = SensorStimulus("light", start=0.0, duration=1.0, magnitude=1)
    live = SensorStimulus("accel_x", start=40.0, duration=20.0,
                          magnitude=5)
    for stimulus in (late, early, live):
        mote.inject(stimulus)
    assert mote._stimuli == [early, live, late]  # ordered by start

    def proc(env):
        yield env.timeout(50.0)
        assert mote.read_sensory("light") == BASELINES["light"]
        assert mote._stimuli == [live, late]
        assert mote.read_sensory("accel_x") == 5.0
        yield env.timeout(50.5)
        assert mote.read_sensory("light") == BASELINES["light"] + 7
        assert mote._stimuli == [late]

    env.process(proc(env))
    env.run()


def test_noise_free_mote_draws_no_noise():
    """``gauss(0, 0)`` is exactly 0.0: a noise-free read takes nothing
    from the mote's generator, so its radio draws are the read-free
    ones."""
    env = Environment()
    mote = make_mote(env, noise_amplitude=0.0)
    state = mote._rng.getstate()
    for name in BASELINES:
        mote.read_sensory(name)
    assert mote._rng.getstate() == state


def test_battery_reading_and_drain():
    env = Environment()
    mote = make_mote(env)
    assert mote.read_sensory("battery") == BATTERY_FULL_VOLTS

    def proc(env):
        yield from mote.execute("beep")

    env.process(proc(env))
    env.run()
    assert mote.battery_volts < BATTERY_FULL_VOLTS


def test_dead_battery_blocks_readings():
    env = Environment()
    mote = make_mote(env)
    mote.battery_volts = 1.9
    with pytest.raises(DeviceError, match="battery dead"):
        mote.read_sensory("accel_x")


def test_connect_time_scales_with_hop_depth():
    env = Environment()
    shallow = SensorMote(env, "s1", Point(0, 0), hop_depth=1)
    deep = SensorMote(env, "s2", Point(0, 0), hop_depth=4)
    durations = {}

    def connect(env, mote, name):
        start = env.now
        yield from mote.execute("connect")
        durations[name] = env.now - start

    env.process(connect(env, shallow, "shallow"))
    env.process(connect(env, deep, "deep"))
    env.run()
    assert durations["deep"] == pytest.approx(4 * durations["shallow"])


def test_lossy_radio_drops_connections():
    env = Environment()
    mote = SensorMote(env, "s1", Point(0, 0), hop_depth=3,
                      packet_loss_rate=0.5, rng=random.Random(7))
    outcomes = []

    def connect(env):
        try:
            yield from mote.execute("connect")
            outcomes.append("ok")
        except CommunicationError:
            outcomes.append("lost")

    def driver(env):
        for _ in range(30):
            yield from connect(env)

    env.process(driver(env))
    env.run()
    assert "lost" in outcomes
    assert "ok" in outcomes


def test_invalid_hop_depth_rejected():
    env = Environment()
    with pytest.raises(DeviceError, match="hop_depth"):
        SensorMote(env, "s1", Point(0, 0), hop_depth=0)


def test_invalid_loss_rate_rejected():
    env = Environment()
    with pytest.raises(DeviceError, match="packet_loss_rate"):
        SensorMote(env, "s1", Point(0, 0), packet_loss_rate=1.0)


def test_read_sample_returns_all_readings():
    env = Environment()
    mote = make_mote(env, noise_amplitude=0.0)
    samples = []

    def proc(env):
        outcome = yield from mote.execute("read_sample")
        samples.append(outcome.detail)

    env.process(proc(env))
    env.run()
    assert set(samples[0]) == set(BASELINES)


def test_physical_status_exposes_battery_and_depth():
    env = Environment()
    mote = make_mote(env, hop_depth=3)
    status = mote.physical_status()
    assert status["hop_depth"] == 3.0
    assert status["battery"] == BATTERY_FULL_VOLTS
