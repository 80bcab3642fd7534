"""Incremental warm-start scheduling: identity and splice guarantees.

Three properties carry the feature. (1) A first batch, a device-set
change, or an all-dirty batch runs the inner algorithm fresh — equal to
a cold scheduler's output. (2) An *unchanged* problem, under ANY dirty
signals, equals a full re-run bit-for-bit (signals are advisory; the
value-diff against the previous statuses is the correctness backstop).
(3) Under partial status changes the spliced schedule is feasible and
keeps every clean request on its previous device in its previous order.
"""

import dataclasses
import random
from typing import Any, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.scheduling import (
    CachingCostModel,
    IncrementalScheduler,
    LerfaSrfeScheduler,
    Problem,
    SchedRequest,
    SchedulingCostModel,
    SrfaeScheduler,
    default_fingerprint,
    uniform_camera_workload,
)
from repro.devices.camera import HeadPosition
from repro.scheduling.vector_cost import HAVE_NUMPY
from repro.scheduling.workload import CameraStatusCostModel

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY,
                                 reason="numpy not installed")


class LineModel(SchedulingCostModel):
    """1-D head positions: cost = |target - head| + 1, head moves.

    Deterministic and sequence-dependent, with statuses the test can
    perturb per device — the minimal model for dirty-set experiments.
    """

    cache_by_default = False
    deterministic = True

    def __init__(self, heads):
        self.heads = dict(heads)

    def initial_status(self, device_id: str) -> float:
        return self.heads[device_id]

    def estimate(self, request: SchedRequest, device_id: str,
                 status: Any) -> Tuple[float, Any]:
        target = float(request.payload)
        return abs(target - status) + 1.0, target


def line_problem(heads, targets, candidates=None):
    device_ids = tuple(heads)
    return Problem(
        requests=tuple(
            SchedRequest(request_id=f"r{i}",
                         candidates=(candidates or {}).get(f"r{i}",
                                                           device_ids),
                         payload=target)
            for i, target in enumerate(targets)),
        device_ids=device_ids,
        cost_model=LineModel(heads),
    )


HEADS = {"d1": 0.0, "d2": 50.0, "d3": -40.0}
TARGETS = (3.0, 55.0, -35.0, 10.0, 48.0, -50.0, 0.5, 60.0)


# ----------------------------------------------------------------------
# Identity guarantees
# ----------------------------------------------------------------------
def test_first_batch_equals_a_cold_full_run():
    problem = line_problem(HEADS, TARGETS)
    warm = IncrementalScheduler(SrfaeScheduler(0))
    cold = SrfaeScheduler(0)
    assert warm.schedule(problem).assignments == \
        cold.schedule(problem).assignments
    assert warm.stats.full_runs == 1
    assert warm.name == "SRFAE+warm"


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 14), m=st.integers(1, 4),
       seed=st.integers(0, 500),
       dirty=st.sets(st.integers(0, 3), max_size=4))
def test_unchanged_problem_equals_full_rerun_under_any_signals(
        n, m, seed, dirty):
    problem = uniform_camera_workload(n, m, seed=seed)
    warm = IncrementalScheduler(SrfaeScheduler(0))
    first = warm.schedule(problem)
    for index in dirty:
        warm.mark_dirty(problem.device_ids[index % m])
    second = warm.schedule(problem)
    reference = SrfaeScheduler(0).schedule(problem)
    assert first.assignments == reference.assignments
    assert second.assignments == reference.assignments
    assert warm.stats.full_runs == 1  # the second batch re-placed nothing
    assert warm.stats.reused_requests == n


def test_all_dirty_batch_equals_a_cold_full_run():
    warm = IncrementalScheduler(SrfaeScheduler(0))
    warm.schedule(line_problem(HEADS, TARGETS))
    moved = {"d1": 7.0, "d2": -3.0, "d3": 99.0}
    second = line_problem(moved, TARGETS)
    assert warm.schedule(second).assignments == \
        SrfaeScheduler(0).schedule(second).assignments
    assert warm.stats.dirty_devices == 3


def test_device_set_change_forces_a_full_run():
    warm = IncrementalScheduler(SrfaeScheduler(0))
    warm.schedule(line_problem(HEADS, TARGETS))
    grown = dict(HEADS, d4=100.0)
    second = line_problem(grown, TARGETS)
    assert warm.schedule(second).assignments == \
        SrfaeScheduler(0).schedule(second).assignments
    assert warm.stats.full_runs == 2


def test_duplicate_fingerprints_force_a_full_run():
    problem = line_problem(HEADS, (5.0, 5.0, 9.0))
    # Same candidates + payload under a content fingerprint: ambiguous
    # cross-batch identity, so the scheduler must not try to splice.
    warm = IncrementalScheduler(
        SrfaeScheduler(0),
        fingerprint=lambda request: request.payload)
    warm.schedule(problem)
    warm.schedule(problem)
    assert warm.stats.full_runs == 2


def test_reset_forgets_the_previous_batch():
    problem = line_problem(HEADS, TARGETS)
    warm = IncrementalScheduler(SrfaeScheduler(0))
    warm.schedule(problem)
    warm.reset()
    warm.schedule(problem)
    assert warm.stats.full_runs == 2


# ----------------------------------------------------------------------
# The splice under partial dirt
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 500),
       dirty=st.sets(st.sampled_from(("d1", "d2", "d3")), min_size=1,
                     max_size=2))
def test_partial_dirt_keeps_clean_queues_and_stays_feasible(seed, dirty):
    rng = random.Random(seed)
    targets = tuple(rng.uniform(-60, 60) for _ in range(10))
    problem = line_problem(HEADS, targets)
    warm = IncrementalScheduler(SrfaeScheduler(0))
    first = warm.schedule(problem)

    moved = {device_id: (head + 13.0 if device_id in dirty else head)
             for device_id, head in HEADS.items()}
    second_problem = line_problem(moved, targets)
    second = warm.schedule(second_problem)
    second.validate(second_problem)  # feasible: every request, once
    assert warm.stats.full_runs == 1
    for device_id in problem.device_ids:
        if device_id in dirty:
            continue
        kept = first.assignments[device_id]
        assert second.assignments[device_id][:len(kept)] == kept


def test_changed_requests_are_replaced_kept_ones_stay():
    targets = (3.0, 55.0, -35.0, 10.0)
    problem = line_problem(HEADS, targets)
    warm = IncrementalScheduler(SrfaeScheduler(0))
    first = warm.schedule(problem)

    # Same statuses; r1 changes payload, r4 is new, r0 disappears.
    second_problem = dataclasses.replace(
        problem,
        requests=(
            dataclasses.replace(problem.requests[1], payload=20.0),
            problem.requests[2],
            problem.requests[3],
            SchedRequest(request_id="r4",
                         candidates=problem.device_ids, payload=-10.0),
        ))
    second = warm.schedule(second_problem)
    second.validate(second_problem)
    assert warm.stats.full_runs == 1
    # The two untouched requests stay exactly where they were.
    for request_id in ("r2", "r3"):
        previous_device = first.device_of(request_id)
        assert second.device_of(request_id) == previous_device
    assert warm.stats.replaced_requests == len(targets) + 2


def test_candidate_set_change_is_a_new_fingerprint():
    problem = line_problem(HEADS, (5.0, 9.0))
    warm = IncrementalScheduler(SrfaeScheduler(0))
    warm.schedule(problem)
    narrowed = line_problem(HEADS, (5.0, 9.0),
                            candidates={"r1": ("d2",)})
    second = warm.schedule(narrowed)
    second.validate(narrowed)
    assert second.device_of("r1") == "d2"
    assert warm.stats.full_runs == 1


# ----------------------------------------------------------------------
# The shared cost oracle
# ----------------------------------------------------------------------
def test_shared_cache_carries_hits_across_batches():
    problem = line_problem(HEADS, TARGETS)
    cache = CachingCostModel(problem.cost_model, track_devices=True)
    warm = IncrementalScheduler(SrfaeScheduler(0), cost_cache=cache)
    warm.schedule(problem)
    primed = cache.misses
    # Unchanged batch: nothing is re-placed, so the oracle is not even
    # consulted — zero new misses and zero hits.
    warm.schedule(problem)
    assert cache.misses == primed
    assert cache.hits == 0
    # A new request forces a warm splice: the kept queues are re-walked
    # through the shared memo, so the prefix costs come back as hits.
    grown = dataclasses.replace(
        problem,
        requests=problem.requests + (
            SchedRequest(request_id="r99",
                         candidates=problem.device_ids, payload=-25.0),))
    warm.schedule(grown)
    assert cache.hits > 0
    # The report is this batch's lookups, not the cache's lifetime ...
    assert warm.last_cache_stats["hits"] == cache.hits
    assert warm.last_cache_stats["misses"] == cache.misses - primed
    assert warm.last_cache_stats["entries"] == cache.entries
    # ... which the scheduler's own counters keep.
    assert warm.stats.cache_hits == cache.hits
    assert warm.stats.cache_misses == cache.misses


def test_shared_cache_must_wrap_the_problems_model():
    problem = line_problem(HEADS, TARGETS)
    foreign = CachingCostModel(LineModel(HEADS))
    warm = IncrementalScheduler(SrfaeScheduler(0), cost_cache=foreign)
    with pytest.raises(SchedulingError, match="shared cost cache"):
        warm.schedule(problem)


def test_invalidate_device_keeps_the_shared_cache_honest():
    problem = line_problem(HEADS, TARGETS)
    cache = CachingCostModel(problem.cost_model, track_devices=True)
    warm = IncrementalScheduler(SrfaeScheduler(0), cost_cache=cache)
    warm.schedule(problem)
    before = cache.entries
    cache.invalidate_device("d1")
    assert cache.entries < before


def test_shared_cache_is_bounded_by_the_last_batch():
    cache = CachingCostModel(LineModel(HEADS), track_devices=True)
    warm = IncrementalScheduler(SrfaeScheduler(0), cost_cache=cache)
    for batch in range(50):
        # Disjoint ids every batch, as the engine issues them.
        problem = Problem(
            requests=tuple(
                SchedRequest(request_id=f"b{batch}r{i}",
                             candidates=tuple(HEADS), payload=target)
                for i, target in enumerate(TARGETS)),
            device_ids=tuple(HEADS), cost_model=cache.inner)
        warm.schedule(problem)
        ids = {request.request_id for request in problem.requests}
        assert {key[0] for key in cache._estimates} <= ids
        # Every (request, device) pair from every status one device
        # can pass through: its initial one plus one per request.
        assert cache.entries <= len(TARGETS) * len(HEADS) * (len(TARGETS) + 1)
        assert len(cache._frozen_by_id) <= cache.entries
    assert warm.stats.cache_misses == cache.misses  # nothing was lost


# ----------------------------------------------------------------------
# The column kernel under warm start
# ----------------------------------------------------------------------
class CountingCameraModel(CameraStatusCostModel):
    """The analytic camera oracle, counting its scalar estimates."""

    scalar_estimates = 0

    def estimate(self, request, device_id, status):
        self.scalar_estimates += 1
        return super().estimate(request, device_id, status)


def camera_batches(seed, moved, fresh):
    """Three batches of (initial heads, requests) over one fleet.

    The second moves the heads of the devices indexed by ``moved`` and
    swaps the first ``fresh`` requests for new ones, so the draw makes
    it a partial-reuse, a zero-reuse (every request new) or an
    all-dirty (every head moved) batch; the third moves every head and
    replaces every request.
    """
    base = uniform_camera_workload(12, 4, seed=seed)
    rng = random.Random(seed + 1)
    calibration = base.cost_model.calibration

    def head():
        return HeadPosition(
            pan=rng.uniform(calibration.pan_min, calibration.pan_max),
            tilt=rng.uniform(calibration.tilt_min, calibration.tilt_max),
            zoom=rng.uniform(calibration.zoom_min, calibration.zoom_max))

    heads = {device_id: base.cost_model.initial_status(device_id)
             for device_id in base.device_ids}
    second_heads = {device_id: (head() if index in moved else pose)
                    for index, (device_id, pose) in enumerate(heads.items())}
    second_requests = base.requests[fresh:] + tuple(
        SchedRequest(request_id=f"new{i}", candidates=base.device_ids,
                     payload=head()) for i in range(fresh))
    third_requests = tuple(
        SchedRequest(request_id=f"last{i}", candidates=base.device_ids,
                     payload=head()) for i in range(9))
    return [
        (heads, base.requests),
        (second_heads, second_requests),
        ({device_id: head() for device_id in heads}, third_requests),
    ]


def run_camera_batches(algorithm, vectorize, batches):
    """(per-batch assignments, scalar estimates made, scheduler stats)."""
    warm = IncrementalScheduler(algorithm(0, vectorize=vectorize))
    assignments, estimates = [], 0
    for heads, requests in batches:
        model = CountingCameraModel(heads)
        assignments.append(warm.schedule(Problem(
            requests=requests, device_ids=tuple(heads),
            cost_model=model)).assignments)
        estimates += model.scalar_estimates
    return assignments, estimates, warm.stats


@needs_numpy
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 500),
       moved=st.sets(st.integers(0, 3), max_size=4),
       fresh=st.integers(0, 12),
       algorithm=st.sampled_from((SrfaeScheduler, LerfaSrfeScheduler)))
def test_vectorized_warm_runs_make_no_scalar_estimates(
        seed, moved, fresh, algorithm):
    batches = camera_batches(seed, moved, fresh)
    scalar, scalar_estimates, scalar_stats = run_camera_batches(
        algorithm, False, batches)
    vector, vector_estimates, vector_stats = run_camera_batches(
        algorithm, True, batches)
    assert scalar_estimates > 0
    assert vector_estimates == 0
    assert vector == scalar
    assert vector_stats == scalar_stats


@needs_numpy
@pytest.mark.parametrize("moved, fresh, reused", [
    ({1}, 3, True),            # partial reuse: a splice plus a remainder
    (set(), 12, False),        # zero reuse: every request is new
    ({0, 1, 2, 3}, 0, False),  # all dirty: same requests, every head moved
], ids=["partial-reuse", "zero-reuse", "all-dirty"])
def test_each_kind_of_warm_batch_keeps_the_kernel(moved, fresh, reused):
    batches = camera_batches(11, moved, fresh)[:2]
    scalar, _, _ = run_camera_batches(SrfaeScheduler, False, batches)
    vector, estimates, stats = run_camera_batches(SrfaeScheduler, True,
                                                  batches)
    assert estimates == 0
    assert vector == scalar
    assert stats.full_runs == 1  # the second batch went the warm way
    assert (stats.reused_requests > 0) == reused
    if not reused:
        # Nothing to splice behind: exactly a cold run of that batch.
        heads, requests = batches[1]
        assert vector[1] == SrfaeScheduler(0).schedule(Problem(
            requests=requests, device_ids=tuple(heads),
            cost_model=CameraStatusCostModel(heads))).assignments


# ----------------------------------------------------------------------
# Fingerprints and composition
# ----------------------------------------------------------------------
def test_default_fingerprint_covers_id_candidates_payload():
    a = SchedRequest("r1", ("d1", "d2"), payload=3.0)
    assert default_fingerprint(a) == default_fingerprint(
        SchedRequest("r1", ("d1", "d2"), payload=3.0))
    assert default_fingerprint(a) != default_fingerprint(
        SchedRequest("r1", ("d1",), payload=3.0))
    assert default_fingerprint(a) != default_fingerprint(
        SchedRequest("r1", ("d1", "d2"), payload=4.0))
    assert default_fingerprint(a) != default_fingerprint(
        SchedRequest("r2", ("d1", "d2"), payload=3.0))


def test_wraps_any_inner_algorithm():
    problem = line_problem(HEADS, TARGETS)
    warm = IncrementalScheduler(LerfaSrfeScheduler(7))
    first = warm.schedule(problem)
    assert warm.name == "LERFA+SRFE+warm"
    assert warm.seed == 7
    assert first.assignments == \
        LerfaSrfeScheduler(7).schedule(problem).assignments
    # rng reseeding: repeating the batch replays the inner shuffle.
    assert warm.schedule(problem).assignments == first.assignments
