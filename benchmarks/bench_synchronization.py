"""E1 — Section 6.2: effects of device synchronization.

Paper setup: 10 registered photo queries over 2 cameras; query i
photographs mote i's location once per minute. Without synchronization
"more than half of the action requests failed ..., resulted in blurred
photos, or took photos at wrong positions"; with the locking + probing
mechanisms "the percentage of these action failures reduced to nearly
10%" (the residue stemming from the heavy 10-queries-on-2-cameras
workload on unreliable hardware — modelled here as camera link loss).

A failure is: a failed request, a blurred photo, or a photo aimed more
than a degree off its target.
"""

import pytest

from repro import (
    AortaEngine,
    EngineConfig,
    Environment,
    PanTiltZoomCamera,
    Point,
    SensorMote,
    SensorStimulus,
)
from repro.actions.request import RequestState
from repro.devices.camera import Photo
from repro.network import LinkModel

from _common import format_table, record

N_QUERIES = 10
MINUTES = 10

#: Unreliable-hardware model: the camera control link occasionally
#: drops an exchange (real AXIS cameras "suffer from network connection
#: delay and produce blurred photos occasionally", Section 4).
LINKS = {
    "camera": LinkModel(latency_seconds=0.005, jitter_seconds=0.001,
                        loss_rate=0.04),
    "sensor": LinkModel(latency_seconds=0.02, jitter_seconds=0.005,
                        loss_rate=0.02),
    "phone": LinkModel(latency_seconds=0.3, jitter_seconds=0.05,
                       loss_rate=0.01),
}

PAPER = {"without": ">50%", "with": "~10%"}


def run_study(locking: bool, seed: int = 0) -> float:
    config = EngineConfig(locking=locking, probing=locking)
    env = Environment()
    engine = AortaEngine(env, config=config, links=dict(LINKS), seed=seed)
    # Real cameras "produce blurred photos occasionally" (Section 4):
    # the residual ~10% failure rate the paper saw *with* locking.
    import random
    engine.add_device(PanTiltZoomCamera(env, "cam1", Point(0, 0),
                                        blur_probability=0.08,
                                        rng=random.Random(seed)))
    engine.add_device(PanTiltZoomCamera(env, "cam2", Point(20, 0),
                                        facing=180.0,
                                        blur_probability=0.08,
                                        rng=random.Random(seed + 1)))
    for i in range(1, N_QUERIES + 1):
        mote = SensorMote(env, f"mote{i}", Point(2.0 * i, 3.0),
                          noise_amplitude=0.0)
        engine.add_device(mote)
        engine.execute(f'''CREATE AQ photo_mote{i} AS
            SELECT photo(c.ip, s.loc, "photos/q{i}")
            FROM sensor s, camera c
            WHERE s.accel_x > 500 AND s.id = "mote{i}"
              AND coverage(c.id, s.loc)''')
        for minute in range(MINUTES):
            mote.inject(SensorStimulus(
                "accel_x", start=60.0 * minute + 1.0 + 0.1 * i,
                duration=3.0, magnitude=900.0))
    engine.start()
    engine.run(until=60.0 * MINUTES + 30.0)

    requests = engine.completed_requests
    assert requests, "study produced no requests"
    failures = 0
    for request in requests:
        if request.state is RequestState.FAILED:
            failures += 1
        elif isinstance(request.result, Photo) and not request.result.ok:
            failures += 1
    return failures / len(requests)


@pytest.fixture(scope="module")
def failure_rates():
    return {
        "without": run_study(locking=False),
        "with": run_study(locking=True),
    }


def test_synchronization_reproduction(failure_rates, benchmark):
    rows = [
        ["without synchronization", f"{failure_rates['without']:.0%}",
         PAPER["without"]],
        ["with synchronization", f"{failure_rates['with']:.0%}",
         PAPER["with"]],
    ]
    table = format_table(["configuration", "failure rate", "paper"], rows)
    record("synchronization",
           f"Section 6.2: action failure rate, {N_QUERIES} photo queries "
           f"on 2 cameras, {MINUTES} virtual minutes", table)

    benchmark.pedantic(lambda: run_study(locking=True, seed=1),
                       rounds=1, iterations=1)


def test_unsynchronized_failure_rate_is_high(failure_rates):
    assert failure_rates["without"] > 0.5


def test_synchronized_failure_rate_is_low(failure_rates):
    assert failure_rates["with"] < 0.20


def test_synchronization_helps_by_large_factor(failure_rates):
    assert failure_rates["without"] > 3 * failure_rates["with"]
