"""Ablations of the design choices DESIGN.md calls out.

Not paper figures — these quantify why the paper's mechanisms are built
the way they are, by turning each one off:

* A1 sequence-dependent cost chaining in the schedulers (Section 2.3);
* A2 cost-model estimation accuracy (Section 2.3);
* A3 the balanced BST inside SRFAE (Algorithm 2, Figure 3) is decided
  and has no code here: EXPERIMENTS.md keeps the recorded result;
* A4 shared-operator group scheduling (Section 2.3's operator sharing);
* A5 probing before device selection (Section 4).
"""

from typing import Any, Tuple

import pytest

from repro.scheduling import (
    Problem,
    SchedRequest,
    SchedulingCostModel,
    SrfaeScheduler,
    service_makespan,
    uniform_camera_workload,
)

from _common import format_table, record

RUNS = 10


class _UnchainedEstimates(SchedulingCostModel):
    """Estimates always taken from the device's *initial* status.

    Actual costs stay sequence-dependent — this models a scheduler that
    ignores the paper's physical-status-change effect.
    """

    def __init__(self, inner: SchedulingCostModel) -> None:
        self._inner = inner

    def initial_status(self, device_id: str) -> Any:
        return self._inner.initial_status(device_id)

    def estimate(self, request: SchedRequest, device_id: str,
                 status: Any) -> Tuple[float, Any]:
        seconds, _ = self._inner.estimate(
            request, device_id, self._inner.initial_status(device_id))
        return seconds, status  # no propagation

    def actual(self, request: SchedRequest, device_id: str,
               status: Any) -> Tuple[float, Any]:
        return self._inner.actual(request, device_id, status)


# ----------------------------------------------------------------------
# A1: status chaining on/off
# ----------------------------------------------------------------------

def run_chaining_ablation():
    chained = unchained = 0.0
    for seed in range(RUNS):
        problem = uniform_camera_workload(20, 10, seed=seed)
        schedule = SrfaeScheduler(seed).schedule(problem)
        chained += service_makespan(problem, schedule)

        blind = Problem(requests=problem.requests,
                        device_ids=problem.device_ids,
                        cost_model=_UnchainedEstimates(problem.cost_model))
        blind_schedule = SrfaeScheduler(seed).schedule(blind)
        unchained += service_makespan(blind, blind_schedule)
    return chained / RUNS, unchained / RUNS


@pytest.fixture(scope="module")
def chaining():
    return run_chaining_ablation()


def test_a1_chaining_ablation(chaining, benchmark):
    chained, unchained = chaining
    table = format_table(
        ["estimator", "actual makespan (s)"],
        [["status-chained (paper)", chained],
         ["initial-status only", unchained]])
    record("ablation_chaining",
           "A1: SRFAE with vs without sequence-dependent cost chaining",
           table)
    problem = uniform_camera_workload(20, 10, seed=0)
    benchmark.pedantic(lambda: SrfaeScheduler(0).schedule(problem),
                       rounds=3, iterations=1)


def test_a1_chaining_helps(chaining):
    chained, unchained = chaining
    assert chained < unchained


# ----------------------------------------------------------------------
# A2: estimation noise
# ----------------------------------------------------------------------

NOISE_LEVELS = (0.0, 0.2, 0.5, 1.0)


def run_noise_ablation():
    results = {}
    for noise in NOISE_LEVELS:
        total = 0.0
        for seed in range(RUNS):
            problem = uniform_camera_workload(20, 10, seed=seed,
                                              estimate_noise=noise)
            schedule = SrfaeScheduler(seed).schedule(problem)
            total += service_makespan(problem, schedule)  # actual costs
        results[noise] = total / RUNS
    return results


@pytest.fixture(scope="module")
def noise_results():
    return run_noise_ablation()


def test_a2_noise_ablation(noise_results, benchmark):
    table = format_table(
        ["estimate noise (rel.)", "actual makespan (s)"],
        [[f"±{noise:.0%}", noise_results[noise]]
         for noise in NOISE_LEVELS])
    record("ablation_noise",
           "A2: SRFAE makespan as cost estimates degrade",
           table)
    problem = uniform_camera_workload(20, 10, seed=0, estimate_noise=0.5)
    benchmark.pedantic(lambda: SrfaeScheduler(0).schedule(problem),
                       rounds=3, iterations=1)


def test_a2_accurate_estimates_beat_very_noisy(noise_results):
    assert noise_results[0.0] < noise_results[1.0]


# ----------------------------------------------------------------------
# A4: group scheduling vs one-at-a-time assignment
# ----------------------------------------------------------------------

def _myopic_makespan(problem) -> float:
    """Each request assigned on arrival to the least-completion device
    (what per-query action operators without sharing would do)."""
    statuses = problem.initial_statuses()
    completions = {device_id: 0.0 for device_id in problem.device_ids}
    for request in problem.requests:
        best_device = min(
            request.candidates,
            key=lambda d: completions[d] + problem.cost_model.estimate(
                request, d, statuses[d])[0])
        seconds, post = problem.cost_model.actual(
            request, best_device, statuses[best_device])
        completions[best_device] += seconds
        statuses[best_device] = post
    return max(completions.values())


def run_sharing_ablation():
    grouped = myopic = 0.0
    for seed in range(RUNS):
        problem = uniform_camera_workload(20, 10, seed=seed)
        schedule = SrfaeScheduler(seed).schedule(problem)
        grouped += service_makespan(problem, schedule)
        myopic += _myopic_makespan(problem)
    return grouped / RUNS, myopic / RUNS


@pytest.fixture(scope="module")
def sharing():
    return run_sharing_ablation()


def test_a4_sharing_ablation(sharing, benchmark):
    grouped, myopic = sharing
    table = format_table(
        ["dispatch mode", "makespan (s)"],
        [["shared operator, batch-scheduled (paper)", grouped],
         ["per-query operators, one-at-a-time", myopic]])
    record("ablation_sharing",
           "A4: group scheduling via the shared action operator",
           table)
    problem = uniform_camera_workload(20, 10, seed=0)
    benchmark.pedantic(lambda: _myopic_makespan(problem),
                       rounds=3, iterations=1)


def test_a4_group_scheduling_helps(sharing):
    grouped, myopic = sharing
    assert grouped < myopic


# ----------------------------------------------------------------------
# A5: probing on/off with partially dead fleet (engine level)
# ----------------------------------------------------------------------

def run_probing_ablation(probing: bool) -> float:
    from repro import (AortaEngine, EngineConfig, Environment,
                       PanTiltZoomCamera, Point, SensorMote,
                       SensorStimulus)
    from repro.actions.request import RequestState

    env = Environment()
    engine = AortaEngine(env, config=EngineConfig(probing=probing,
                                                  locking=True))
    # Geometry chosen so the *dead* cameras are the cheapest candidates
    # (close to the motes), while the live ones are far away — without
    # probing, the optimizer confidently assigns to corpses.
    for i, (x, alive) in enumerate([(0.0, True), (30.0, False),
                                    (60.0, True), (90.0, False)]):
        camera = PanTiltZoomCamera(env, f"cam{i + 1}", Point(x, 0),
                                   view_half_angle=180.0,
                                   view_range=120.0)
        engine.add_device(camera)
        if not alive:
            camera.go_offline()
    for name, x in (("mote1", 33.0), ("mote2", 87.0)):
        mote = SensorMote(env, name, Point(x, 2.0), noise_amplitude=0.0)
        engine.add_device(mote)
        for k in range(5):
            mote.inject(SensorStimulus("accel_x", start=20.0 * k + 1.0,
                                       duration=3.0, magnitude=900.0))
    engine.execute('''CREATE AQ watch AS
        SELECT photo(c.ip, s.loc, "photos")
        FROM sensor s, camera c
        WHERE s.accel_x > 500 AND coverage(c.id, s.loc)''')
    engine.start()
    engine.run(until=120.0)
    requests = engine.completed_requests
    assert requests
    failed = sum(1 for r in requests if r.state is RequestState.FAILED)
    return failed / len(requests)


@pytest.fixture(scope="module")
def probing_rates():
    return {"with": run_probing_ablation(True),
            "without": run_probing_ablation(False)}


def test_a5_probing_ablation(probing_rates, benchmark):
    table = format_table(
        ["configuration", "request failure rate"],
        [["probing on (paper)", f"{probing_rates['with']:.0%}"],
         ["probing off", f"{probing_rates['without']:.0%}"]])
    record("ablation_probing",
           "A5: probing before device selection, half the fleet dead",
           table)
    benchmark.pedantic(lambda: run_probing_ablation(True),
                       rounds=1, iterations=1)


def test_a5_probing_prevents_dead_assignments(probing_rates):
    assert probing_rates["with"] < 0.05
    assert probing_rates["without"] > probing_rates["with"]


# ----------------------------------------------------------------------
# A6: what probing costs when nothing is wrong
# ----------------------------------------------------------------------

def run_probing_latency(probing: bool) -> float:
    """Mean event-to-completion latency with a fully healthy fleet."""
    from repro import (AortaEngine, EngineConfig, Environment,
                       PanTiltZoomCamera, Point, SensorMote,
                       SensorStimulus)

    env = Environment()
    engine = AortaEngine(env, config=EngineConfig(probing=probing))
    for i in range(4):
        engine.add_device(PanTiltZoomCamera(
            env, f"cam{i + 1}", Point(8.0 * i, 0),
            view_half_angle=180.0, view_range=60.0))
    mote = SensorMote(env, "mote1", Point(10, 3), noise_amplitude=0.0)
    engine.add_device(mote)
    engine.execute('''CREATE AQ watch AS
        SELECT photo(c.ip, s.loc, "photos")
        FROM sensor s, camera c
        WHERE s.accel_x > 500 AND coverage(c.id, s.loc)''')
    for k in range(8):
        mote.inject(SensorStimulus("accel_x", start=15.0 * k + 1.0,
                                   duration=3.0, magnitude=900.0))
    engine.start()
    engine.run(until=140.0)
    latencies = [r.completion_seconds for r in engine.completed_requests
                 if r.completion_seconds is not None]
    assert latencies
    return sum(latencies) / len(latencies)


@pytest.fixture(scope="module")
def probing_latency():
    return {"with": run_probing_latency(True),
            "without": run_probing_latency(False)}


def test_a6_probing_overhead(probing_latency, benchmark):
    overhead = probing_latency["with"] - probing_latency["without"]
    table = format_table(
        ["configuration", "mean event->completion latency (s)"],
        [["probing on", probing_latency["with"]],
         ["probing off", probing_latency["without"]],
         ["probe overhead", overhead]])
    record("ablation_probe_overhead",
           "A6: latency cost of probing with a healthy fleet "
           "(the insurance premium for A5's protection)", table)
    benchmark.pedantic(lambda: run_probing_latency(True),
                       rounds=1, iterations=1)


def test_a6_probe_overhead_is_small(probing_latency):
    overhead = probing_latency["with"] - probing_latency["without"]
    # Probing costs round trips, not seconds: well under 10% of the
    # multi-second photo latency.
    assert 0 <= overhead < 0.1 * probing_latency["with"]
