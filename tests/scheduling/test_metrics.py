"""Unit tests for makespan metrics and status-chained replay."""

import pytest

from repro.errors import SchedulingError
from repro.devices.camera import HeadPosition
from repro.scheduling import (
    Problem,
    Schedule,
    SchedRequest,
    StaticCostModel,
    breakdown,
    service_makespan,
    total_makespan,
)
from repro.scheduling.metrics import device_completion_times
from repro.scheduling.workload import CameraStatusCostModel


def static_problem():
    costs = {("r1", "d1"): 1.0, ("r2", "d1"): 2.0, ("r3", "d2"): 4.0}
    return Problem(
        requests=(SchedRequest("r1", ("d1",)),
                  SchedRequest("r2", ("d1",)),
                  SchedRequest("r3", ("d2",))),
        device_ids=("d1", "d2"),
        cost_model=StaticCostModel(costs),
    )


def test_device_completion_times_add_up():
    problem = static_problem()
    schedule = Schedule("test", {"d1": ["r1", "r2"], "d2": ["r3"]})
    completions = device_completion_times(problem, schedule)
    assert completions == {"d1": pytest.approx(3.0), "d2": pytest.approx(4.0)}


def test_service_makespan_is_max_completion():
    problem = static_problem()
    schedule = Schedule("test", {"d1": ["r1", "r2"], "d2": ["r3"]})
    assert service_makespan(problem, schedule) == pytest.approx(4.0)


def test_total_makespan_includes_scheduling_time():
    problem = static_problem()
    schedule = Schedule("test", {"d1": ["r1", "r2"], "d2": ["r3"]},
                        scheduling_seconds=0.5)
    assert total_makespan(problem, schedule) == pytest.approx(4.5)


def test_breakdown_structure():
    problem = static_problem()
    schedule = Schedule("SRFAE", {"d1": ["r1", "r2"], "d2": ["r3"]},
                        scheduling_seconds=0.25)
    result = breakdown(problem, schedule)
    assert result.algorithm == "SRFAE"
    assert result.scheduling_seconds == pytest.approx(0.25)
    assert result.service_seconds == pytest.approx(4.0)


def test_sequence_dependence_in_replay():
    """Same set, different order, different makespan: the paper's point."""
    rest = HeadPosition()
    far = HeadPosition(pan=170)
    near = HeadPosition(pan=10)
    model = CameraStatusCostModel({"d1": rest})
    problem = Problem(
        requests=(SchedRequest("far", ("d1",), payload=far),
                  SchedRequest("near", ("d1",), payload=near)),
        device_ids=("d1",),
        cost_model=model,
    )
    near_first = Schedule("a", {"d1": ["near", "far"]})
    far_first = Schedule("b", {"d1": ["far", "near"]})
    # near-first: 10 deg + 160 deg = 170 deg total panning.
    # far-first: 170 deg + 160 deg = 330 deg total panning.
    assert service_makespan(problem, near_first) < service_makespan(
        problem, far_first)


def test_validate_rejects_double_scheduling():
    problem = static_problem()
    schedule = Schedule("bad", {"d1": ["r1", "r1", "r2"], "d2": ["r3"]})
    with pytest.raises(SchedulingError, match="twice"):
        schedule.validate(problem)


def test_validate_rejects_missing_request():
    problem = static_problem()
    schedule = Schedule("bad", {"d1": ["r1", "r2"], "d2": []})
    with pytest.raises(SchedulingError, match="unscheduled"):
        schedule.validate(problem)


def test_validate_rejects_non_candidate_device():
    problem = static_problem()
    schedule = Schedule("bad", {"d1": ["r1", "r2", "r3"], "d2": []})
    with pytest.raises(SchedulingError, match="non-candidate"):
        schedule.validate(problem)


def test_validate_rejects_unknown_device():
    problem = static_problem()
    schedule = Schedule("bad", {"ghost": ["r1"]})
    with pytest.raises(SchedulingError, match="unknown devices"):
        schedule.validate(problem)
