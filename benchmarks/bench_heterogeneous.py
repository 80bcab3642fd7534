"""E9 (extension) — concurrent heterogeneous action workloads.

The paper's future work calls for "scheduling techniques for a large
number of heterogeneous devices". This bench drives the *engine* (not
just the scheduler) with three action types on three device types at
once — photo() on cameras, blink() on motes, sendphoto() on phones —
and verifies the per-action shared operators dispatch independently and
correctly under load.
"""

import pytest

from repro import (
    AortaEngine,
    Environment,
    MobilePhone,
    PanTiltZoomCamera,
    Point,
    SensorMote,
    SensorStimulus,
)
from repro.actions.builtins import sendphoto_profile, sendphoto_resolver
from repro.actions.request import RequestState

from _common import format_table, record

N_CAMERAS = 4
N_MOTES = 12
N_PHONES = 2
MINUTES = 5


def build_engine(seed=0):
    env = Environment()
    engine = AortaEngine(env, seed=seed)
    for i in range(N_CAMERAS):
        engine.add_device(PanTiltZoomCamera(
            env, f"cam{i + 1}", Point(12.0 * i, 0),
            view_half_angle=180.0, view_range=60.0))
    for i in range(N_MOTES):
        engine.add_device(SensorMote(
            env, f"mote{i + 1}", Point(3.0 * i, 4.0), noise_amplitude=0.0))
    for i in range(N_PHONES):
        engine.add_device(MobilePhone(
            env, f"phone{i + 1}", Point(0, 0), number=f"+8529000000{i}"))

    def sendphoto_impl(device, args):
        yield from device.execute("connect")
        outcome = yield from device.execute(
            "receive_mms", sender="aorta", body="alert",
            attachment=args["photo_pathname"], size_kb=80.0)
        return outcome.detail

    engine.install_action_code("lib/users/sendphoto.dll", sendphoto_impl)
    engine.install_action_profile(
        "profiles/users/sendphoto.xml", sendphoto_profile(),
        sendphoto_resolver, device_parameters={"phone_no": "number"})
    engine.execute('''CREATE ACTION sendphoto(String phone_no,
                                              String photo_pathname)
        AS "lib/users/sendphoto.dll" PROFILE "profiles/users/sendphoto.xml"''')

    engine.execute('''CREATE AQ snap AS
        SELECT photo(c.ip, s.loc, "photos")
        FROM sensor s, camera c
        WHERE s.accel_x > 500 AND coverage(c.id, s.loc)''')
    engine.execute('''CREATE AQ flash AS
        SELECT blink(t.id)
        FROM sensor s, sensor t
        WHERE s.accel_x > 500 AND distance(t.loc, s.loc) < 6
          AND distance(t.loc, s.loc) > 0''')
    engine.execute('''CREATE AQ notify AS
        SELECT sendphoto(p.number, "photos/alert.jpg")
        FROM sensor s, phone p
        WHERE s.accel_x > 800''')
    return engine


def run_experiment():
    import random
    engine = build_engine()
    rng = random.Random(4)
    for minute in range(MINUTES):
        for mote_index in rng.sample(range(1, N_MOTES + 1), 4):
            mote = engine.comm.registry.get(f"mote{mote_index}")
            mote.inject(SensorStimulus(
                "accel_x", start=60.0 * minute + rng.uniform(1, 50),
                duration=3.0, magnitude=rng.choice([600, 900, 1200])))
    engine.start()
    engine.run(until=60.0 * MINUTES + 30.0)

    per_action = {}
    for request in engine.completed_requests:
        stats = per_action.setdefault(
            request.action_name, {"serviced": 0, "failed": 0})
        key = ("serviced" if request.state is RequestState.SERVICED
               else "failed")
        stats[key] += 1
    return engine, per_action


@pytest.fixture(scope="module")
def experiment():
    return run_experiment()


def test_heterogeneous_reproduction(experiment, benchmark):
    engine, per_action = experiment
    rows = [[name, stats["serviced"], stats["failed"]]
            for name, stats in sorted(per_action.items())]
    table = format_table(["action", "serviced", "failed"], rows)
    record("heterogeneous",
           f"E9: three action types on three device types, "
           f"{MINUTES} virtual minutes", table)
    benchmark.pedantic(run_experiment, rounds=1, iterations=1)


def test_all_three_action_types_ran(experiment):
    _, per_action = experiment
    assert set(per_action) == {"photo", "blink", "sendphoto"}
    for stats in per_action.values():
        assert stats["serviced"] > 0


def test_actions_land_on_matching_device_types(experiment):
    engine, _ = experiment
    expected = {"photo": "camera", "blink": "sensor",
                "sendphoto": "phone"}
    for request in engine.completed_requests:
        if request.assigned_device is None:
            continue
        device = engine.comm.registry.get(request.assigned_device)
        assert device.device_type == expected[request.action_name]


def test_failure_rate_low(experiment):
    _, per_action = experiment
    total = sum(s["serviced"] + s["failed"] for s in per_action.values())
    failed = sum(s["failed"] for s in per_action.values())
    assert failed / total < 0.1
