"""Unit tests for problem instances and cost models."""

import pytest

from repro.errors import InfeasibleScheduleError, SchedulingError
from repro.scheduling import Problem, SchedRequest, StaticCostModel


def small_problem():
    costs = {("r1", "d1"): 1.0, ("r1", "d2"): 2.0,
             ("r2", "d1"): 3.0, ("r2", "d2"): 1.0}
    return Problem(
        requests=(SchedRequest("r1", ("d1", "d2")),
                  SchedRequest("r2", ("d1", "d2"))),
        device_ids=("d1", "d2"),
        cost_model=StaticCostModel(costs),
    )


def test_counts():
    problem = small_problem()
    assert problem.n_requests == 2
    assert len(problem.device_ids) == 2


def test_request_lookup():
    problem = small_problem()
    assert problem.request("r1").request_id == "r1"
    with pytest.raises(SchedulingError, match="unknown request"):
        problem.request("ghost")


def test_empty_candidates_rejected():
    with pytest.raises(InfeasibleScheduleError, match="no candidate"):
        SchedRequest("r1", ())


def test_duplicate_candidates_rejected():
    with pytest.raises(SchedulingError, match="twice"):
        SchedRequest("r1", ("d1", "d1"))


def test_duplicate_request_ids_rejected():
    with pytest.raises(SchedulingError, match="duplicate request"):
        Problem(
            requests=(SchedRequest("r1", ("d1",)),
                      SchedRequest("r1", ("d1",))),
            device_ids=("d1",),
            cost_model=StaticCostModel({}),
        )


def test_unknown_candidate_device_rejected():
    with pytest.raises(SchedulingError, match="unknown\\s+devices"):
        Problem(
            requests=(SchedRequest("r1", ("ghost",)),),
            device_ids=("d1",),
            cost_model=StaticCostModel({}),
        )


def test_static_cost_model_lookup():
    model = StaticCostModel({("r1", "d1"): 2.5})
    request = SchedRequest("r1", ("d1",))
    assert model.estimate(request, "d1", None) == (2.5, None)
    assert model.actual(request, "d1", None) == (2.5, None)
    with pytest.raises(SchedulingError, match="no cost defined"):
        model.estimate(request, "d2", None)


def test_static_cost_model_rejects_negative():
    with pytest.raises(SchedulingError, match="negative"):
        StaticCostModel({("r1", "d1"): -1.0})
