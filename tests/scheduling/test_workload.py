"""Unit tests for the synthetic workload generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.devices.camera import HeadPosition
from repro.scheduling import (
    SchedRequest,
    skewed_camera_workload,
    uniform_camera_workload,
)
from repro.scheduling.workload import CameraStatusCostModel


def test_uniform_workload_shape():
    problem = uniform_camera_workload(20, 10, seed=0)
    assert problem.n_requests == 20
    assert len(problem.device_ids) == 10
    for request in problem.requests:
        assert set(request.candidates) == set(problem.device_ids)


def test_uniform_workload_costs_in_paper_interval():
    """Every (request, device, initial status) cost lies in [0.36, 5.36]."""
    problem = uniform_camera_workload(30, 10, seed=1)
    statuses = problem.initial_statuses()
    for request in problem.requests:
        for device_id in request.candidates:
            seconds, _ = problem.cost_model.estimate(
                request, device_id, statuses[device_id])
            assert 0.36 <= seconds <= 5.36


def test_workload_is_deterministic_per_seed():
    a = uniform_camera_workload(10, 4, seed=9)
    b = uniform_camera_workload(10, 4, seed=9)
    assert [r.payload for r in a.requests] == [r.payload for r in b.requests]
    c = uniform_camera_workload(10, 4, seed=10)
    assert [r.payload for r in a.requests] != [r.payload for r in c.requests]


def test_skewed_workload_candidate_structure():
    problem = skewed_camera_workload(20, 10, skewness=0.3, seed=0)
    full = [r for r in problem.requests if len(r.candidates) == 10]
    restricted = [r for r in problem.requests if len(r.candidates) == 3]
    assert len(full) == 10
    assert len(restricted) == 10


def test_skewness_bounds_validated():
    with pytest.raises(SchedulingError, match="skewness"):
        skewed_camera_workload(10, 10, skewness=0.0)
    with pytest.raises(SchedulingError, match="skewness"):
        skewed_camera_workload(10, 10, skewness=1.5)


def test_workload_size_validated():
    with pytest.raises(SchedulingError, match="at least one"):
        uniform_camera_workload(0, 5)


def test_cost_model_post_status_is_target():
    model = CameraStatusCostModel({"d1": HeadPosition()})
    target = HeadPosition(pan=90, tilt=10, zoom=2)
    request = SchedRequest("r1", ("d1",), payload=target)
    _, post = model.estimate(request, "d1", HeadPosition())
    assert post == target


def test_cost_model_unknown_device_rejected():
    model = CameraStatusCostModel({"d1": HeadPosition()})
    with pytest.raises(SchedulingError, match="no initial head"):
        model.initial_status("ghost")


def test_estimate_noise_perturbs_estimates_not_actuals():
    model = CameraStatusCostModel({"d1": HeadPosition()},
                                  estimate_noise=0.2, noise_seed=1)
    target = HeadPosition(pan=90)
    request = SchedRequest("r1", ("d1",), payload=target)
    actual, _ = model.actual(request, "d1", HeadPosition())
    estimates = {model.estimate(request, "d1", HeadPosition())[0]
                 for _ in range(5)}
    assert len(estimates) > 1
    assert all(abs(e - actual) / actual <= 0.2 + 1e-9 for e in estimates)


def test_negative_noise_rejected():
    with pytest.raises(SchedulingError, match="estimate_noise"):
        CameraStatusCostModel({"d1": HeadPosition()}, estimate_noise=-0.1)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 30), m=st.integers(1, 10), seed=st.integers(0, 999))
def test_uniform_workload_always_valid(n, m, seed):
    problem = uniform_camera_workload(n, m, seed=seed)
    statuses = problem.initial_statuses()
    for request in problem.requests:
        seconds, post = problem.cost_model.estimate(
            request, request.candidates[0], statuses[request.candidates[0]])
        assert 0.36 <= seconds <= 5.36
        assert isinstance(post, HeadPosition)
