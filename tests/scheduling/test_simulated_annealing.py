"""SA-specific behaviour: parameters, penalty handling, convergence."""

import math

import pytest

from repro.errors import SchedulingError
from repro.scheduling import (
    RandomScheduler,
    SAParameters,
    SimulatedAnnealingScheduler,
    service_makespan,
    skewed_camera_workload,
    uniform_camera_workload,
)

FAST = SAParameters(moves_per_temperature_per_request=5, cooling=0.8,
                    min_temp_fraction=0.01)


def test_parameter_validation():
    with pytest.raises(SchedulingError, match="cooling"):
        SAParameters(cooling=1.0)
    with pytest.raises(SchedulingError, match="cooling"):
        SAParameters(cooling=0.0)
    with pytest.raises(SchedulingError, match="initial_temp_factor"):
        SAParameters(initial_temp_factor=0)


@pytest.mark.parametrize("factor", [math.nan, math.inf])
def test_non_finite_initial_temp_factor_is_refused(factor):
    with pytest.raises(SchedulingError, match="initial_temp_factor"):
        SAParameters(initial_temp_factor=factor)


@pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.1, math.nan])
def test_min_temp_fraction_outside_the_unit_interval_is_refused(fraction):
    # 1.0 or NaN ends the annealing before its first move: SA would
    # return its random initial solution without a word.
    with pytest.raises(SchedulingError, match="min_temp_fraction"):
        SAParameters(min_temp_fraction=fraction)


@pytest.mark.parametrize("name", ["max_evaluations",
                                  "moves_per_temperature_per_request"])
@pytest.mark.parametrize("count", [0, -1, 2.5, math.nan])
def test_sa_counts_must_be_integers_of_at_least_one(name, count):
    with pytest.raises(SchedulingError, match=name):
        SAParameters(**{name: count})


def test_evaluation_counter_populated():
    scheduler = SimulatedAnnealingScheduler(0, parameters=FAST)
    scheduler.schedule(uniform_camera_workload(10, 4, seed=0))
    assert scheduler.evaluations > 0


def test_max_evaluations_caps_work():
    capped = SAParameters(moves_per_temperature_per_request=100,
                          cooling=0.999, max_evaluations=500)
    scheduler = SimulatedAnnealingScheduler(0, parameters=capped)
    scheduler.schedule(uniform_camera_workload(10, 4, seed=0))
    assert scheduler.evaluations <= 500 + 100 * 10  # one round of slack


def test_sa_beats_random_on_average():
    sa_total = random_total = 0.0
    for seed in range(5):
        problem = uniform_camera_workload(15, 5, seed=seed)
        sa = SimulatedAnnealingScheduler(seed, parameters=FAST)
        sa_total += service_makespan(problem, sa.schedule(problem))
        random_total += service_makespan(
            problem, RandomScheduler(seed).schedule(problem))
    assert sa_total < random_total


def test_sa_single_request_problem():
    problem = uniform_camera_workload(1, 3, seed=0)
    schedule = SimulatedAnnealingScheduler(0, parameters=FAST).schedule(
        problem)
    schedule.validate(problem)


def test_sa_single_device_problem():
    problem = uniform_camera_workload(6, 1, seed=0)
    schedule = SimulatedAnnealingScheduler(0, parameters=FAST).schedule(
        problem)
    schedule.validate(problem)
    assert len(schedule.assignments["cam1"]) == 6


def test_penalty_evaluations_inflate_under_skew():
    """Eligibility restrictions burn extra evaluations (the Figure 6
    mechanism): a skewed instance needs more draws than a uniform one
    for the same annealing budget."""
    uniform = SimulatedAnnealingScheduler(0, parameters=FAST)
    uniform.schedule(uniform_camera_workload(20, 10, seed=0))
    skewed = SimulatedAnnealingScheduler(0, parameters=FAST)
    skewed.schedule(skewed_camera_workload(20, 10, 0.2, seed=0))
    assert skewed.evaluations > uniform.evaluations


def test_sa_respects_eligibility_despite_unrestricted_proposals():
    for seed in range(3):
        problem = skewed_camera_workload(12, 6, 0.3, seed=seed)
        schedule = SimulatedAnnealingScheduler(
            seed, parameters=FAST).schedule(problem)
        schedule.validate(problem)  # raises on any violation


def test_sa_reproducible_per_seed():
    problem = uniform_camera_workload(10, 4, seed=2)
    first = SimulatedAnnealingScheduler(3, parameters=FAST).schedule(problem)
    second = SimulatedAnnealingScheduler(3, parameters=FAST).schedule(problem)
    assert first.assignments == second.assignments
