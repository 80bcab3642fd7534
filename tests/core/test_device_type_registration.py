"""A device type is registered once: one ``register_device_type`` call on
a built engine makes the type queryable, costable, probe-able and
schedulable, because the schema catalog, the cost model and the prober
read the communication layer's profiles in place."""

import sys
from pathlib import Path

import pytest

from repro import AortaEngine, Environment, Point, SensorMote, SensorStimulus
from repro.network import LinkModel
from repro.network.link import DEFAULT_LINKS

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "examples"))
import custom_device  # noqa: E402


def run(engine, generator):
    box = []

    def proc(env):
        box.append((yield from generator))

    engine.env.process(proc(engine.env))
    engine.env.run()
    return box[0]


def test_one_registration_after_construction_reaches_every_layer():
    env = Environment()
    links = dict(DEFAULT_LINKS, doorlock=LinkModel(latency_seconds=0.04))
    engine = AortaEngine(env, links=links)
    engine.comm.register_device_type(custom_device.doorlock_catalog(),
                                     custom_device.doorlock_cost_table(),
                                     probe_timeout=0.8)
    near = custom_device.DoorLock(env, "lock1", Point(10, 0),
                                  door_name="lab")
    far = custom_device.DoorLock(env, "lock2", Point(90, 0),
                                 door_name="rear")
    window = SensorMote(env, "window1", Point(12, 5), noise_amplitude=0.0)
    for device in (near, far, window):
        engine.add_device(device)

    # Queryable: the planner validates the SELECT against the schema.
    assert sorted(engine.run_select(
        "SELECT d.id, d.door_name FROM doorlock d")) == [
        ("lock1", "lab"), ("lock2", "rear")]

    # Costable: CREATE ACTION checks the profile against the cost table.
    engine.install_action_code("lib/users/lockdown.dll",
                               custom_device.lockdown_impl)
    engine.install_action_profile(
        "profiles/users/lockdown.xml", custom_device.lockdown_profile(),
        custom_device.lockdown_resolver,
        device_parameters={"lock_id": "id"}, select_all=True)
    engine.execute('''CREATE ACTION lockdown(String lock_id)
        AS "lib/users/lockdown.dll" PROFILE "profiles/users/lockdown.xml"''')
    # connect 0.05 s + engage_bolt 0.5 s, the mechanism is not cold.
    assert engine.cost_model.estimate("lockdown", near, {}).seconds == \
        pytest.approx(0.55)
    engine.execute('''CREATE AQ intrusion_lockdown AS
        SELECT lockdown(d.id)
        FROM sensor s, doorlock d
        WHERE s.accel_x > 600 AND distance(d.loc, s.loc) < 15''')

    # Probe-able, with the type's own TIMEOUT: an unreachable lock
    # costs exactly 0.8 s, a reachable one answers with its status.
    far.go_offline()
    missed = run(engine, engine.comm.probe(far))
    assert not missed.available
    assert missed.round_trip_seconds == pytest.approx(0.8)
    far.go_online()
    answered = run(engine, engine.comm.probe(near))
    assert answered.available
    assert answered.status == {"engaged": 0.0, "mech_temp": 20.0}

    # Schedulable: an intrusion next to lock1 bolts lock1 only.
    start = env.now
    window.inject(SensorStimulus("accel_x", start=start + 2.0,
                                 duration=3.0, magnitude=900.0))
    engine.start()
    engine.run(until=start + 20.0)
    serviced = [request for request in engine.completed_requests
                if request.state.value == "serviced"]
    assert [request.assigned_device for request in serviced] == ["lock1"]
    assert near.engaged and not far.engaged
