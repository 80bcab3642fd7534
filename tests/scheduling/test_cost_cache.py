"""Two scheduling tests kept under this file's name so their ids last.

No scheduler memoizes its cost estimates (DESIGN.md decision 6). What
this file holds: every algorithm refuses a ``cost_cache`` option, and
SA's prefix-completion evaluator
(:class:`~repro.scheduling.simulated_annealing.IncrementalMakespan`)
agrees bit-for-bit with a full left-to-right walk, or SA's reproduced
figures would move.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling import (
    LerfaSrfeScheduler,
    ListScheduler,
    RandomScheduler,
    SimulatedAnnealingScheduler,
    SrfaeScheduler,
    uniform_camera_workload,
)
from repro.scheduling.simulated_annealing import IncrementalMakespan


def test_cost_cache_option_is_gone():
    for scheduler_class in (LerfaSrfeScheduler, SrfaeScheduler,
                            ListScheduler, SimulatedAnnealingScheduler,
                            RandomScheduler):
        with pytest.raises(TypeError, match="cost_cache"):
            scheduler_class(0, cost_cache=True)


# ----------------------------------------------------------------------
# SA incremental evaluator == full re-walk
# ----------------------------------------------------------------------
def _full_completions(problem, solution):
    """Seconds each device's queue takes at estimated costs,
    status-chained: the full re-walk the evaluator must match."""
    cost_model = problem.cost_model
    completions = {}
    for device_id, queue in solution.items():
        status = cost_model.initial_status(device_id)
        elapsed = 0.0
        for request in queue:
            seconds, status = cost_model.estimate(request, device_id, status)
            elapsed += seconds
        completions[device_id] = elapsed
    return completions


@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 12), m=st.integers(2, 4),
       seed=st.integers(0, 500), moves=st.integers(1, 40))
def test_incremental_makespan_matches_full_walk(n, m, seed, moves):
    problem = uniform_camera_workload(n, m, seed=seed)
    rng = random.Random(seed)
    solution = {device_id: [] for device_id in problem.device_ids}
    for request in problem.requests:
        solution[rng.choice(request.candidates)].append(request)
    evaluator = IncrementalMakespan(problem, solution)

    for _ in range(moves):
        # A random relocate, committed or undone at random — both paths
        # must leave the evaluator consistent with a full re-walk.
        request = rng.choice(problem.requests)
        source = next(d for d, q in solution.items() if request in q)
        target = rng.choice(request.candidates)
        source_index = solution[source].index(request)
        solution[source].pop(source_index)
        target_index = rng.randint(0, len(solution[target]))
        solution[target].insert(target_index, request)
        if source == target:
            touched = {source: min(source_index, target_index)}
        else:
            touched = {source: source_index, target: target_index}
        new_makespan, tails = evaluator.preview(touched)

        expected = _full_completions(problem, solution)
        assert new_makespan == max(expected.values())

        if rng.random() < 0.5:
            evaluator.commit(new_makespan, tails)
            assert evaluator.completions == expected
            assert evaluator.makespan == max(expected.values())
        else:
            solution[target].remove(request)
            solution[source].insert(source_index, request)
            assert evaluator.completions == _full_completions(problem,
                                                              solution)
