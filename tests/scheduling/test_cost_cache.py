"""The memoizing cost oracle: keying, who gets one, transparency,
incremental SA.

The load-bearing property here is *observational transparency*: with a
deterministic inner model, every scheduler must produce byte-identical
schedules with and without the memo, and SA's incremental evaluator
must agree bit-for-bit with a full re-walk — otherwise the perf work
would silently change the paper's reproduced figures.
"""

import copy
import dataclasses

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.scheduling import (
    CachingCostModel,
    LerfaSrfeScheduler,
    ListScheduler,
    Problem,
    RandomScheduler,
    SAParameters,
    SchedRequest,
    SimulatedAnnealingScheduler,
    SrfaeScheduler,
    StaticCostModel,
    uniform_camera_workload,
)
from repro.scheduling.cost_cache import freeze_status
from repro.scheduling.simulated_annealing import IncrementalMakespan

from tests.scheduling.scalar_walk import scalar_walk

TINY_SA = SAParameters(moves_per_temperature_per_request=4,
                       max_evaluations=400)

SCHEDULER_FACTORIES = (
    lambda: LerfaSrfeScheduler(0),
    lambda: SrfaeScheduler(0),
    lambda: ListScheduler(0),
    lambda: SimulatedAnnealingScheduler(0, parameters=TINY_SA),
    lambda: RandomScheduler(0),
)


def opted_in(problem):
    """``problem`` over a copy of its model that asks for the memo."""
    model = copy.copy(problem.cost_model)
    model.cache_by_default = True
    return dataclasses.replace(problem, cost_model=model)


def prewrapped(problem):
    """``problem`` with the memo already in place: any algorithm uses it."""
    return dataclasses.replace(
        problem, cost_model=CachingCostModel(problem.cost_model))


# ----------------------------------------------------------------------
# freeze_status keying
# ----------------------------------------------------------------------
def test_freeze_status_dicts_are_value_keyed():
    a = freeze_status({"pan": 10.0, "tilt": -5.0})
    b = freeze_status({"tilt": -5.0, "pan": 10.0})  # other insert order
    assert a == b
    assert hash(a) == hash(b)
    assert freeze_status({"pan": 10.0, "tilt": 0.0}) != a


def test_freeze_status_nested_structures():
    status = {"head": {"pan": 1.0, "tilt": 2.0}, "queue": [1, 2],
              "flags": {"busy"}}
    frozen = freeze_status(status)
    hash(frozen)
    assert frozen == freeze_status(
        {"queue": [1, 2], "flags": {"busy"}, "head": {"tilt": 2.0, "pan": 1.0}})


def test_freeze_status_passes_through_hashables():
    assert freeze_status(3.5) == 3.5
    assert freeze_status("idle") == "idle"
    assert freeze_status(None) is None


def test_freeze_status_rejects_unhashable_objects():
    class Opaque:
        __hash__ = None

    with pytest.raises(SchedulingError):
        freeze_status(Opaque())


# ----------------------------------------------------------------------
# CachingCostModel unit behaviour
# ----------------------------------------------------------------------
def _static_problem():
    costs = {("r1", "d1"): 2.0, ("r1", "d2"): 3.0,
             ("r2", "d1"): 1.0, ("r2", "d2"): 4.0}
    return Problem(
        requests=(SchedRequest("r1", ("d1", "d2")),
                  SchedRequest("r2", ("d1", "d2"))),
        device_ids=("d1", "d2"),
        cost_model=StaticCostModel(costs),
    )


def test_cache_counts_hits_and_misses():
    problem = _static_problem()
    cache = CachingCostModel(problem.cost_model)
    request = problem.requests[0]
    status = cache.initial_status("d1")
    first = cache.estimate(request, "d1", status)
    second = cache.estimate(request, "d1", status)
    assert first == second
    assert (cache.hits, cache.misses) == (1, 1)
    assert cache.stats() == {"hits": 1, "misses": 1,
                             "hit_rate": pytest.approx(0.5)}


def test_cache_accepts_dict_statuses():
    problem = _static_problem()
    cache = CachingCostModel(problem.cost_model)
    request = problem.requests[0]
    cache.estimate(request, "d1", {"pan": 0.0, "tilt": 1.0})
    cache.estimate(request, "d1", {"tilt": 1.0, "pan": 0.0})
    assert (cache.hits, cache.misses) == (1, 1)


def test_cache_refuses_nesting_and_nondeterminism():
    problem = _static_problem()
    cache = CachingCostModel(problem.cost_model)
    with pytest.raises(SchedulingError):
        CachingCostModel(cache)
    noisy = uniform_camera_workload(4, 2, seed=0, estimate_noise=0.1)
    assert not noisy.cost_model.deterministic
    with pytest.raises(SchedulingError):
        CachingCostModel(noisy.cost_model)


def test_auto_policy_follows_the_models_hint():
    """A memo needs an algorithm that revisits and a model that opts in."""
    cheap = uniform_camera_workload(6, 2, seed=0)
    assert not cheap.cost_model.cache_by_default
    annealer = SimulatedAnnealingScheduler(0, parameters=TINY_SA)
    assert annealer.memoizes

    annealer.schedule(opted_in(cheap))
    stats = annealer.last_cache_stats
    assert stats is not None and stats["hits"] > 0

    annealer.schedule(cheap)  # analytic model: no hint, no memo
    assert annealer.last_cache_stats is None

    for greedy in (LerfaSrfeScheduler(0), SrfaeScheduler(0),
                   ListScheduler(0), RandomScheduler(0)):
        assert not greedy.memoizes
        greedy.schedule(opted_in(cheap))
        assert greedy.last_cache_stats is None


def test_schedulers_skip_caching_noisy_models():
    noisy = uniform_camera_workload(6, 2, seed=0, estimate_noise=0.1)
    scheduler = SimulatedAnnealingScheduler(0, parameters=TINY_SA)
    scheduler.schedule(opted_in(noisy))
    assert scheduler.last_cache_stats is None


def test_prewrapped_problem_keeps_its_memo():
    """How a test or bench gives a greedy algorithm a memo: wrap first,
    and take the scalar walk, since a kernel bypasses the memo."""
    problem = prewrapped(uniform_camera_workload(6, 2, seed=0))
    scheduler = SrfaeScheduler(0)
    with scalar_walk():
        scheduler.schedule(problem)
    assert scheduler.last_cache_stats == problem.cost_model.stats()
    assert scheduler.last_cache_stats["misses"] > 0


def test_memo_passes_actual_through_to_the_inner_model():
    """LS consumes ``actual``; the memo must not answer it from
    ``estimate``."""
    class Optimist(StaticCostModel):
        def actual(self, request, device_id, status):
            seconds, post = self.estimate(request, device_id, status)
            return 2 * seconds, post

    cache = CachingCostModel(Optimist({("r1", "d1"): 2.0}))
    request = SchedRequest("r1", ("d1",))
    assert cache.estimate(request, "d1", None) == (2.0, None)
    assert cache.actual(request, "d1", None) == (4.0, None)


def test_cost_cache_option_is_gone():
    for scheduler_class in (LerfaSrfeScheduler, SrfaeScheduler,
                            ListScheduler, SimulatedAnnealingScheduler,
                            RandomScheduler):
        with pytest.raises(TypeError, match="cost_cache"):
            scheduler_class(0, cost_cache=True)


# ----------------------------------------------------------------------
# Observational transparency: memo == no memo, all five
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 14), m=st.integers(1, 5),
       seed=st.integers(0, 1000))
def test_all_schedulers_identical_with_cache_on_and_off(n, m, seed):
    """The model's hint is the only input that differs; the pre-wrapped
    leg puts the four algorithms the hint does not reach behind a memo
    too. Every algorithm takes the scalar walk, so it walks the
    estimates the memo answers."""
    problem = uniform_camera_workload(n, m, seed=seed)
    with scalar_walk():
        for factory in SCHEDULER_FACTORIES:
            plain = factory().schedule(problem).assignments
            assert factory().schedule(opted_in(problem)).assignments == plain
            assert factory().schedule(prewrapped(problem)).assignments == plain


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
