"""Tests for the exact solver and heuristic-vs-optimal gaps."""

import pytest

from repro.errors import SchedulingError
from repro.scheduling import (
    LerfaSrfeScheduler,
    Problem,
    SchedRequest,
    SrfaeScheduler,
    StaticCostModel,
    optimal_schedule,
    service_makespan,
    uniform_camera_workload,
)


def test_optimal_on_transparent_instance():
    costs = {("r1", "d1"): 1.0, ("r1", "d2"): 10.0,
             ("r2", "d1"): 10.0, ("r2", "d2"): 1.0}
    problem = Problem(
        requests=(SchedRequest("r1", ("d1", "d2")),
                  SchedRequest("r2", ("d1", "d2"))),
        device_ids=("d1", "d2"),
        cost_model=StaticCostModel(costs),
    )
    result = optimal_schedule(problem)
    assert result.makespan == pytest.approx(1.0)
    assert result.schedule.assignments == {"d1": ["r1"], "d2": ["r2"]}


def test_optimal_respects_eligibility():
    costs = {("r1", "d1"): 5.0, ("r2", "d1"): 5.0}
    problem = Problem(
        requests=(SchedRequest("r1", ("d1",)),
                  SchedRequest("r2", ("d1",))),
        device_ids=("d1", "d2"),
        cost_model=StaticCostModel(costs),
    )
    result = optimal_schedule(problem)
    assert result.makespan == pytest.approx(10.0)


def test_optimal_exploits_sequencing():
    """With sequence-dependent costs, the order on one device matters."""
    problem = uniform_camera_workload(4, 1, seed=5)
    result = optimal_schedule(problem)
    # Any order is feasible; optimal must be <= the identity order.
    from repro.scheduling import Schedule
    identity = Schedule("identity", {
        "cam1": [r.request_id for r in problem.requests]})
    assert result.makespan <= service_makespan(problem, identity) + 1e-9


def test_optimal_lower_bounds_heuristics():
    for seed in range(5):
        problem = uniform_camera_workload(6, 3, seed=seed)
        optimal = optimal_schedule(problem)
        for scheduler in (LerfaSrfeScheduler(seed), SrfaeScheduler(seed)):
            heuristic = service_makespan(problem,
                                         scheduler.schedule(problem))
            assert heuristic >= optimal.makespan - 1e-9


def test_heuristics_near_optimal_on_small_instances():
    """Section 6.3: proposed algorithms within ~1 s of the optimum."""
    gaps = []
    for seed in range(5):
        problem = uniform_camera_workload(6, 3, seed=seed)
        optimal = optimal_schedule(problem)
        heuristic = service_makespan(
            problem, SrfaeScheduler(seed).schedule(problem))
        gaps.append(heuristic - optimal.makespan)
    assert sum(gaps) / len(gaps) < 1.5


def test_instance_size_guard():
    problem = uniform_camera_workload(11, 2, seed=0)
    with pytest.raises(SchedulingError, match="at most"):
        optimal_schedule(problem)


def test_explored_counter_positive():
    problem = uniform_camera_workload(4, 2, seed=0)
    result = optimal_schedule(problem)
    assert result.assignments_explored >= 1
    assert result.solve_seconds >= 0
