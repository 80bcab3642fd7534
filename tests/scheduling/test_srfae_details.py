"""Algorithm-2-specific behaviour: key updates, accumulation, queues."""

import pytest

from repro.devices.camera import HeadPosition
from repro.scheduling import (
    Problem,
    SchedRequest,
    SrfaeScheduler,
    StaticCostModel,
    service_makespan,
)
from repro.scheduling.workload import CameraStatusCostModel


def test_globally_shortest_pair_goes_first():
    costs = {("slow", "d1"): 5.0, ("slow", "d2"): 4.0,
             ("quick", "d1"): 0.5, ("quick", "d2"): 2.0}
    problem = Problem(
        requests=(SchedRequest("slow", ("d1", "d2")),
                  SchedRequest("quick", ("d1", "d2"))),
        device_ids=("d1", "d2"),
        cost_model=StaticCostModel(costs),
    )
    schedule = SrfaeScheduler(0).schedule(problem)
    # quick/d1 (0.5) is the global minimum pair -> quick lands on d1
    # first; slow then compares d1 (0.5 + 5.0) vs d2 (4.0) -> d2.
    assert schedule.assignments["d1"] == ["quick"]
    assert schedule.assignments["d2"] == ["slow"]


def test_accumulated_workload_reflected_in_keys():
    """After d1 takes one request, its remaining keys include the
    accumulated completion, steering later requests elsewhere."""
    costs = {("r1", "d1"): 1.0,
             ("r2", "d1"): 1.2, ("r2", "d2"): 2.0,
             ("r3", "d1"): 1.4, ("r3", "d2"): 2.2}
    problem = Problem(
        requests=(SchedRequest("r1", ("d1",)),
                  SchedRequest("r2", ("d1", "d2")),
                  SchedRequest("r3", ("d1", "d2"))),
        device_ids=("d1", "d2"),
        cost_model=StaticCostModel(costs),
    )
    schedule = SrfaeScheduler(0).schedule(problem)
    # r1 on d1 (1.0). r2: d1 completes at 2.2, d2 at 2.0 -> d2.
    # r3: d1 completes at 2.4, d2 at 2.0+2.2=4.2 -> d1.
    assert schedule.assignments["d1"] == ["r1", "r3"]
    assert schedule.assignments["d2"] == ["r2"]


def test_status_rekeying_after_assignment():
    """Keys are recomputed from the device's *new* head pose."""
    model = CameraStatusCostModel({"d1": HeadPosition(pan=0)})
    near = SchedRequest("near", ("d1",), payload=HeadPosition(pan=10))
    cluster = SchedRequest("cluster", ("d1",),
                           payload=HeadPosition(pan=15))
    problem = Problem(requests=(near, cluster), device_ids=("d1",),
                      cost_model=model)
    schedule = SrfaeScheduler(0).schedule(problem)
    # near (10 deg) first; cluster is then only 5 deg away.
    assert schedule.assignments["d1"] == ["near", "cluster"]
    makespan = service_makespan(problem, schedule)
    # 0.36*2 + (10 + 5)/68 degrees of panning.
    assert makespan == pytest.approx(0.72 + 15 / 68)


def test_single_pair_problem():
    costs = {("only", "d1"): 2.0}
    problem = Problem(requests=(SchedRequest("only", ("d1",)),),
                      device_ids=("d1",), cost_model=StaticCostModel(costs))
    schedule = SrfaeScheduler(0).schedule(problem)
    assert schedule.assignments["d1"] == ["only"]
