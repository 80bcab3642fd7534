"""Algorithm-1-specific behaviour: LERFA ordering, SRFE sequencing."""

import pytest

from repro.devices.camera import HeadPosition
from repro.scheduling import (
    LerfaSrfeScheduler,
    Problem,
    SchedRequest,
    StaticCostModel,
)
from repro.scheduling.workload import CameraStatusCostModel


def test_least_eligible_requests_assigned_first():
    """A 1-candidate request must get its device even when a flexible
    request would otherwise grab it first."""
    costs = {("picky", "d1"): 5.0,
             ("flexible", "d1"): 1.0, ("flexible", "d2"): 10.0}
    problem = Problem(
        requests=(SchedRequest("flexible", ("d1", "d2")),
                  SchedRequest("picky", ("d1",))),
        device_ids=("d1", "d2"),
        cost_model=StaticCostModel(costs),
    )
    schedule = LerfaSrfeScheduler(0).schedule(problem)
    assert "picky" in schedule.assignments["d1"]
    # LERFA saw d1 already loaded with 5.0, so flexible's projected
    # completion on d1 (6.0) lost to d2 (10.0)? No: 6.0 < 10.0, flexible
    # still joins d1. What matters: picky was assigned first.
    assert "flexible" in schedule.assignments["d1"]


def test_workload_aware_assignment():
    """With equal costs everywhere, LERFA spreads requests evenly."""
    costs = {(f"r{i}", d): 1.0
             for i in range(6) for d in ("d1", "d2", "d3")}
    problem = Problem(
        requests=tuple(SchedRequest(f"r{i}", ("d1", "d2", "d3"))
                       for i in range(6)),
        device_ids=("d1", "d2", "d3"),
        cost_model=StaticCostModel(costs),
    )
    schedule = LerfaSrfeScheduler(0).schedule(problem)
    sizes = sorted(len(q) for q in schedule.assignments.values())
    assert sizes == [2, 2, 2]


def test_srfe_services_shortest_first():
    """Per-device order follows current-status cost, not arrival."""
    start = HeadPosition(pan=0.0)
    model = CameraStatusCostModel({"d1": start})
    # far arrives first, near second; SRFE should run near first.
    far = SchedRequest("far", ("d1",), payload=HeadPosition(pan=160))
    near = SchedRequest("near", ("d1",), payload=HeadPosition(pan=10))
    problem = Problem(requests=(far, near), device_ids=("d1",),
                      cost_model=model)
    schedule = LerfaSrfeScheduler(0).schedule(problem)
    assert schedule.assignments["d1"] == ["near", "far"]


def test_srfe_follows_the_moving_head():
    """After servicing A, the next-shortest is measured from A's pose —
    a pure greedy-by-initial-cost order would differ."""
    model = CameraStatusCostModel({"d1": HeadPosition(pan=0)})
    requests = (
        SchedRequest("a", ("d1",), payload=HeadPosition(pan=30)),
        SchedRequest("b", ("d1",), payload=HeadPosition(pan=60)),
        SchedRequest("c", ("d1",), payload=HeadPosition(pan=-20)),
    )
    problem = Problem(requests=requests, device_ids=("d1",),
                      cost_model=model)
    schedule = LerfaSrfeScheduler(0).schedule(problem)
    # Greedy chain from pan 0: c (20 deg) then a (50 deg from -20)?
    # No: from 0 the nearest is c at 20; from -20, a is 50 away and b 80,
    # so order is c, a, b.
    assert schedule.assignments["d1"] == ["c", "a", "b"]


def test_tie_shuffle_uses_scheduler_seed():
    costs = {(f"r{i}", d): 1.0 for i in range(8)
             for d in ("d1", "d2")}
    problem = Problem(
        requests=tuple(SchedRequest(f"r{i}", ("d1", "d2"))
                       for i in range(8)),
        device_ids=("d1", "d2"),
        cost_model=StaticCostModel(costs),
    )
    outcomes = {
        tuple(tuple(q) for q in
              LerfaSrfeScheduler(seed).schedule(problem).assignments.values())
        for seed in range(6)
    }
    assert len(outcomes) > 1  # the random tie-break actually randomizes
