"""Property tests: schedule makespans respect provable bounds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling import (
    LerfaSrfeScheduler,
    ListScheduler,
    Problem,
    RandomScheduler,
    SchedRequest,
    SrfaeScheduler,
    StaticCostModel,
    service_makespan,
)


@st.composite
def matrix_problems(draw):
    """Random static-cost instances with random eligibility."""
    n_devices = draw(st.integers(1, 5))
    n_requests = draw(st.integers(1, 10))
    device_ids = tuple(f"d{i}" for i in range(n_devices))
    requests = []
    costs = {}
    for r in range(n_requests):
        subset_size = draw(st.integers(1, n_devices))
        candidates = tuple(draw(st.permutations(device_ids))[:subset_size])
        requests.append(SchedRequest(f"r{r}", candidates))
        for device_id in candidates:
            costs[(f"r{r}", device_id)] = draw(
                st.floats(min_value=0.1, max_value=10.0,
                          allow_nan=False))
    return Problem(requests=tuple(requests), device_ids=device_ids,
                   cost_model=StaticCostModel(costs))


SCHEDULERS = [LerfaSrfeScheduler, SrfaeScheduler, ListScheduler,
              RandomScheduler]


@settings(max_examples=40, deadline=None)
@given(problem=matrix_problems(), seed=st.integers(0, 10))
def test_makespan_bounds(problem, seed):
    model = problem.cost_model
    # Lower bound: the costliest request's cheapest servicing.
    lower = max(
        min(model.estimate(r, d, None)[0] for d in r.candidates)
        for r in problem.requests)
    # Upper bound: everything serialized at worst cost.
    upper = sum(
        max(model.estimate(r, d, None)[0] for d in r.candidates)
        for r in problem.requests)
    for factory in SCHEDULERS:
        schedule = factory(seed).schedule(problem)
        schedule.validate(problem)
        makespan = service_makespan(problem, schedule)
        assert lower - 1e-9 <= makespan <= upper + 1e-9, factory.name


@settings(max_examples=30, deadline=None)
@given(problem=matrix_problems(), seed=st.integers(0, 10))
def test_proposed_never_worse_than_serial_on_one_device(problem, seed):
    """A trivial bound the greedy heuristics must clear: better than
    dumping every request on one (eligible) device when alternatives
    exist. Only checked when all requests share full eligibility."""
    full = all(set(r.candidates) == set(problem.device_ids)
               for r in problem.requests)
    if not full or len(problem.device_ids) < 2:
        return
    model = problem.cost_model
    one_device = sum(model.estimate(r, problem.device_ids[0], None)[0]
                     for r in problem.requests)
    for factory in (LerfaSrfeScheduler, SrfaeScheduler):
        makespan = service_makespan(
            problem, factory(seed).schedule(problem))
        assert makespan <= one_device + 1e-9
