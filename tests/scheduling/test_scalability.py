"""Scalability checks: the real-time requirement at larger instances.

"The computational cost of our scheduling algorithm must be small even
if the given input size is large" (Section 5.1). These tests pin the
proposed algorithms' scheduling work — counted in cost-oracle calls,
the unit scheduling time is made of — at instance sizes well beyond
the paper's 30-request maximum. The counts are the scalar walk's, so
they run through ``scalar_walk`` (the numpy kernel answers a whole
column per call).
"""

from dataclasses import replace

import pytest

from repro.scheduling import (
    LerfaSrfeScheduler,
    ListScheduler,
    SrfaeScheduler,
    service_makespan,
    uniform_camera_workload,
)

from tests.scheduling.scalar_walk import scalar_walk


def test_makespan_quality_holds_at_scale():
    problem = uniform_camera_workload(200, 50, seed=1)
    srfae = service_makespan(problem, SrfaeScheduler(1).schedule(problem))
    ls = service_makespan(problem, ListScheduler(1).schedule(problem))
    assert srfae < ls


class _CountingModel:
    """Delegates to a cost model, counting the oracle's answers."""

    def __init__(self, inner):
        self._inner = inner
        self.estimates = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def estimate(self, request, device_id, status):
        self.estimates += 1
        return self._inner.estimate(request, device_id, status)

    def actual(self, request, device_id, status):
        self.estimates += 1
        return self._inner.actual(request, device_id, status)


@pytest.mark.parametrize("factory", [
    LerfaSrfeScheduler, SrfaeScheduler, ListScheduler,
], ids=lambda f: f.name)
def test_greedy_algorithms_fast_at_200_requests(factory):
    """At most one oracle call per (request, device) pair plus one
    re-key per request per placement: n * (m + n) calls for n requests
    on m devices (measured: LS 200, LERFA+SRFE 10513, SRFAE 29900 of
    50000) — a count, so a loaded host cannot fail it.
    """
    n_requests, n_devices = 200, 50
    problem = uniform_camera_workload(n_requests, n_devices, seed=0)
    model = _CountingModel(problem.cost_model)
    with scalar_walk():
        schedule = factory(0).schedule(replace(problem, cost_model=model))
    schedule.validate(problem)
    assert n_requests <= model.estimates \
        <= n_requests * (n_devices + n_requests)


def _srfae_estimates(n_requests):
    problem = uniform_camera_workload(n_requests, 10, seed=2)
    model = _CountingModel(problem.cost_model)
    with scalar_walk():
        SrfaeScheduler(0).schedule(replace(problem, cost_model=model))
    return model.estimates


def test_srfae_scheduling_grows_manageably():
    """Doubling n at most quadruples the work (O(n^2) re-keys, with
    slack for the n*m initial fill) — counted in cost-oracle calls, the
    unit scheduling time is made of, so the host's load cannot fail it.
    """
    small, large = _srfae_estimates(50), _srfae_estimates(100)
    assert small >= 50 * 10  # every pair is keyed at least once
    assert large < 5 * small
