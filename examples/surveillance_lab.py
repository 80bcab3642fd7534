#!/usr/bin/env python3
"""The pervasive-lab monitoring application (paper Section 6).

Reconstructs the paper's testbed: two AXIS-style PTZ cameras on the
ceiling and ten MICA2 motes at places of interest, running an
action-enabled monitoring application:

1. ten snapshot queries — query i photographs mote i's location on
   motion;
2. a user-defined ``sendphoto()`` action, registered with CREATE ACTION
   exactly as in Section 2.2, forwards each stored photo to the
   off-duty manager's phone over MMS;
3. devices fail and recover while the application runs (Section 4's
   unreliability), exercised via failure injection.

Run:  python examples/surveillance_lab.py
"""

import random

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
from repro.devices.failures import FailureInjector, OutageSpec

MANAGER_PHONE = "+85291234567"
N_MOTES = 10
MINUTES = 5


def build_lab(engine: AortaEngine) -> None:
    env = engine.env
    engine.add_device(PanTiltZoomCamera(env, "cam1", Point(0, 0),
                                        ip_address="192.168.0.90"))
    engine.add_device(PanTiltZoomCamera(env, "cam2", Point(24, 0),
                                        facing=180.0,
                                        ip_address="192.168.0.91"))
    rng = random.Random(7)
    for i in range(1, N_MOTES + 1):
        engine.add_device(SensorMote(
            env, f"mote{i}",
            Point(rng.uniform(2, 22), rng.uniform(-6, 6)),
            hop_depth=rng.choice([1, 1, 2, 3]),
            noise_amplitude=0.5,
            rng=random.Random(i),
        ))
    engine.add_device(MobilePhone(env, "manager_phone", Point(0, 0),
                                  number=MANAGER_PHONE))


def register_sendphoto(engine: AortaEngine) -> None:
    """The Section 2.2 CREATE ACTION flow for a user-defined action."""

    def sendphoto_impl(device, args):
        yield from device.execute("connect")
        outcome = yield from device.execute(
            "receive_mms", sender="aorta-lab",
            body="lab motion snapshot",
            attachment=args["photo_pathname"], size_kb=120.0)
        return outcome.detail

    engine.install_action_code("lib/users/sendphoto.dll", sendphoto_impl)
    engine.install_action_profile(
        "profiles/users/sendphoto.xml",
        sendphoto_profile(), sendphoto_resolver,
        device_parameters={"phone_no": "number"},
    )
    engine.execute('''CREATE ACTION sendphoto(String phone_no,
                                              String photo_pathname)
        AS "lib/users/sendphoto.dll"
        PROFILE "profiles/users/sendphoto.xml"''')


def register_queries(engine: AortaEngine) -> None:
    for i in range(1, N_MOTES + 1):
        engine.execute(f'''CREATE AQ photo_mote{i} AS
            SELECT photo(c.ip, s.loc, "photos/mote{i}")
            FROM sensor s, camera c
            WHERE s.accel_x > 500 AND s.id = "mote{i}"
              AND coverage(c.id, s.loc)''')


def forward_photos_to_manager(engine: AortaEngine) -> None:
    """Bridge: each stored photo triggers a sendphoto() request.

    (A production deployment would express this as another AQ over a
    photo-store table; the bridge keeps the example compact.)
    """
    sendphoto = engine.actions.get("sendphoto")
    operator = engine.dispatcher.operator_for(sendphoto)
    operator.attach("forwarder")
    phone_ids = tuple(d.device_id
                      for d in engine.comm.registry.of_type("phone"))
    seen = set()

    def forward(env):
        from repro.actions.request import ActionRequest
        while True:
            for request in engine.completed_requests:
                photo = request.result
                if (request.request_id in seen or photo is None
                        or not hasattr(photo, "pathname")):
                    continue
                seen.add(request.request_id)
                if not photo.ok:
                    continue
                operator.submit(ActionRequest(
                    action_name="sendphoto",
                    arguments={"photo_pathname": photo.pathname},
                    query_id="forwarder",
                    created_at=env.now,
                    candidates=phone_ids,
                ))
            yield env.timeout(2.0)

    engine.env.process(forward(engine.env))


def inject_workload(engine: AortaEngine) -> None:
    rng = random.Random(42)
    for minute in range(MINUTES):
        # A few motes see motion each minute.
        for mote_index in rng.sample(range(1, N_MOTES + 1), 3):
            mote = engine.comm.registry.get(f"mote{mote_index}")
            mote.inject(SensorStimulus(
                "accel_x", start=60.0 * minute + rng.uniform(1, 50),
                duration=3.0, magnitude=rng.uniform(600, 1200)))


def inject_failures(engine: AortaEngine) -> None:
    injector = FailureInjector(engine.env)
    injector.schedule_outage(
        engine.comm.registry.get("cam2"),
        OutageSpec(device_id="cam2", start=70.0, duration=45.0))
    injector.schedule_outage(
        engine.comm.registry.get("mote3"),
        OutageSpec(device_id="mote3", start=120.0, duration=60.0,
                   kind="crash"))


def main() -> None:
    env = Environment()
    engine = AortaEngine(env)
    build_lab(engine)
    register_sendphoto(engine)
    register_queries(engine)
    inject_workload(engine)
    inject_failures(engine)
    engine.start()
    forward_photos_to_manager(engine)
    engine.run(until=60.0 * MINUTES + 30.0)

    stats = engine.statistics()
    print(f"Ran {MINUTES} virtual minutes of lab monitoring")
    print(f"  queries registered     {stats['queries']}")
    print(f"  requests completed     {stats['requests_completed']}")
    print(f"  requests serviced      {stats['requests_serviced']}")
    print(f"  requests failed        {stats['requests_failed']}")
    print(f"  probes (sent/failed)   {stats['probes_sent']}"
          f"/{stats['probes_failed']}")

    cam_photos = {
        camera_id: len(engine.comm.registry.get(camera_id).photo_log)
        for camera_id in ("cam1", "cam2")
    }
    print(f"  photos per camera      {cam_photos}")
    phone = engine.comm.registry.get("manager_phone")
    print(f"  MMS in manager inbox   {len(phone.inbox)}")
    for message in phone.inbox[:3]:
        print(f"    {message.received_at:8.1f}s  {message.attachment}")


if __name__ == "__main__":
    main()
