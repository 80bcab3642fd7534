"""Behavioural tests for the five scheduling algorithms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling import (
    LerfaSrfeScheduler,
    ListScheduler,
    Problem,
    RandomScheduler,
    SAParameters,
    SchedRequest,
    SimulatedAnnealingScheduler,
    SrfaeScheduler,
    StaticCostModel,
    service_makespan,
    total_makespan,
    uniform_camera_workload,
)

#: A fast SA for unit tests (the default is deliberately slow).
FAST_SA = SAParameters(moves_per_temperature_per_request=4,
                       cooling=0.85, min_temp_fraction=0.01)


def all_schedulers(seed=0):
    return [
        LerfaSrfeScheduler(seed),
        SrfaeScheduler(seed),
        ListScheduler(seed),
        SimulatedAnnealingScheduler(seed, parameters=FAST_SA),
        RandomScheduler(seed),
    ]


def two_by_two():
    """r1 cheap on d1, r2 cheap on d2 — the obvious optimum is 1.0."""
    costs = {("r1", "d1"): 1.0, ("r1", "d2"): 10.0,
             ("r2", "d1"): 10.0, ("r2", "d2"): 1.0}
    return Problem(
        requests=(SchedRequest("r1", ("d1", "d2")),
                  SchedRequest("r2", ("d1", "d2"))),
        device_ids=("d1", "d2"),
        cost_model=StaticCostModel(costs),
    )


# ----------------------------------------------------------------------
# Feasibility on every algorithm
# ----------------------------------------------------------------------

@pytest.mark.parametrize("scheduler", all_schedulers(),
                         ids=lambda s: s.name)
def test_schedules_are_feasible_on_camera_workload(scheduler):
    problem = uniform_camera_workload(n_requests=12, n_devices=4, seed=7)
    schedule = scheduler.schedule(problem)
    schedule.validate(problem)  # raises on infeasibility
    assert schedule.scheduling_seconds >= 0
    assert sorted(schedule.scheduled_request_ids) == sorted(
        r.request_id for r in problem.requests)


@pytest.mark.parametrize("scheduler", all_schedulers(),
                         ids=lambda s: s.name)
def test_eligibility_restrictions_respected(scheduler):
    """Requests restricted to one device must land on it."""
    costs = {("r1", "d1"): 1.0,
             ("r2", "d2"): 1.0,
             ("r3", "d1"): 2.0, ("r3", "d2"): 2.0}
    problem = Problem(
        requests=(SchedRequest("r1", ("d1",)),
                  SchedRequest("r2", ("d2",)),
                  SchedRequest("r3", ("d1", "d2"))),
        device_ids=("d1", "d2"),
        cost_model=StaticCostModel(costs),
    )
    schedule = scheduler.schedule(problem)
    assert "r1" in schedule.assignments["d1"]
    assert "r2" in schedule.assignments["d2"]


# ----------------------------------------------------------------------
# Optimality on transparent instances
# ----------------------------------------------------------------------

@pytest.mark.parametrize("scheduler", [
    LerfaSrfeScheduler(0), SrfaeScheduler(0), ListScheduler(0),
], ids=lambda s: s.name)
def test_greedy_algorithms_find_obvious_optimum(scheduler):
    problem = two_by_two()
    schedule = scheduler.schedule(problem)
    assert service_makespan(problem, schedule) == pytest.approx(1.0)


def test_sa_finds_obvious_optimum():
    problem = two_by_two()
    schedule = SimulatedAnnealingScheduler(0, parameters=FAST_SA).schedule(
        problem)
    assert service_makespan(problem, schedule) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Paper-shape expectations (deterministic seeds, averaged)
# ----------------------------------------------------------------------

def average_makespan(scheduler_factory, runs=8, n=20, m=10):
    total = 0.0
    for seed in range(runs):
        problem = uniform_camera_workload(n, m, seed=seed)
        scheduler = scheduler_factory(seed)
        total += service_makespan(problem, scheduler.schedule(problem))
    return total / runs


def test_proposed_algorithms_beat_random():
    random_avg = average_makespan(lambda s: RandomScheduler(s))
    lerfa_avg = average_makespan(lambda s: LerfaSrfeScheduler(s))
    srfae_avg = average_makespan(lambda s: SrfaeScheduler(s))
    assert lerfa_avg < random_avg
    assert srfae_avg < random_avg


def test_proposed_algorithms_beat_ls():
    ls_avg = average_makespan(lambda s: ListScheduler(s))
    lerfa_avg = average_makespan(lambda s: LerfaSrfeScheduler(s))
    srfae_avg = average_makespan(lambda s: SrfaeScheduler(s))
    assert lerfa_avg < ls_avg
    assert srfae_avg < ls_avg


def test_sa_scheduling_time_dominates_greedy():
    """Figure 5's shape: SA computation >> greedy computation."""
    problem = uniform_camera_workload(20, 10, seed=1)
    sa = SimulatedAnnealingScheduler(0)  # default (slow) parameters
    greedy = SrfaeScheduler(0)
    sa_schedule = sa.schedule(problem)
    greedy_schedule = greedy.schedule(problem)
    assert sa_schedule.scheduling_seconds > (
        20 * greedy_schedule.scheduling_seconds)


# ----------------------------------------------------------------------
# Determinism and reproducibility
# ----------------------------------------------------------------------

@pytest.mark.parametrize("factory", [
    lambda s: LerfaSrfeScheduler(s),
    lambda s: SrfaeScheduler(s),
    lambda s: ListScheduler(s),
    lambda s: RandomScheduler(s),
], ids=["LERFA+SRFE", "SRFAE", "LS", "RANDOM"])
def test_same_seed_same_schedule(factory):
    problem = uniform_camera_workload(10, 4, seed=3)
    first = factory(5).schedule(problem)
    second = factory(5).schedule(problem)
    assert first.assignments == second.assignments


def test_different_seeds_vary_random_schedule():
    problem = uniform_camera_workload(10, 4, seed=3)
    outcomes = {
        tuple(sorted((d, tuple(q))
                     for d, q in RandomScheduler(s).schedule(
                         problem).assignments.items()))
        for s in range(5)
    }
    assert len(outcomes) > 1


# ----------------------------------------------------------------------
# Property: feasibility over randomized instances
# ----------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 12), m=st.integers(1, 5), seed=st.integers(0, 99))
def test_all_algorithms_feasible_on_random_instances(n, m, seed):
    problem = uniform_camera_workload(n, m, seed=seed)
    for scheduler in all_schedulers(seed):
        schedule = scheduler.schedule(problem)
        schedule.validate(problem)
        makespan = total_makespan(problem, schedule)
        # Makespan can never beat the costliest single request's
        # cheapest-possible servicing.
        assert makespan >= 0.36
