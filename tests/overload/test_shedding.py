"""Unit tests for the load shedder: deadlines, hysteresis, protection."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.actions.builtins import builtin_definitions
from repro.actions.request import ActionRequest, RequestState
from repro.core.dispatcher import _service_order
from repro.errors import QueueFullError
from repro.obs import Observability
from repro.overload import LoadShedder, OverloadPolicy
from repro.overload.shedding import (
    REASON_DEADLINE,
    REASON_PRESSURE,
    SHED_INTERVAL,
    _shed_key,
)
from repro.plan import SharedActionOperator
from repro.sim import Environment

POLICY = OverloadPolicy(shed_high_watermark=4, shed_low_watermark=2)


def make_request(request_id, *, priority=1, deadline=None, created_at=0.0):
    return ActionRequest(action_name="photo", arguments={},
                         candidates=("cam1",), request_id=request_id,
                         priority=priority, deadline=deadline,
                         created_at=created_at)


class Harness:
    def __init__(self, policy=POLICY):
        self.env = Environment()
        photo = next(d for d in builtin_definitions() if d.name == "photo")
        self.operator = SharedActionOperator(photo)
        self.shed_log = []
        obs = Observability(self.env)
        self.tracer = obs.tracer
        self.shedder = LoadShedder(
            self.env, policy, operators=lambda: [self.operator],
            shed=self._shed, obs=obs)

    def _shed(self, request, reason):
        request.mark_shed(self.env.now, reason)
        self.shed_log.append((request.request_id, reason))

    def fill(self, count, **kwargs):
        for i in range(count):
            self.operator.submit(make_request(f"r{i}", **kwargs))


def test_deadline_pass_sheds_expired_only():
    h = Harness()
    h.env.run(until=10.0)
    h.operator.submit(make_request("expired", deadline=5.0))
    h.operator.submit(make_request("alive", deadline=15.0))
    h.operator.submit(make_request("undated"))
    assert h.shedder.pass_once() == 1
    assert h.shed_log == [("expired", REASON_DEADLINE)]
    assert h.operator.pending_count == 2


def test_deadline_sheds_protected_tiers_too():
    h = Harness()
    h.env.run(until=10.0)
    h.operator.submit(make_request("vip", priority=9, deadline=5.0))
    h.shedder.pass_once()
    assert h.shed_log == [("vip", REASON_DEADLINE)]


def test_hysteresis_edges():
    h = Harness()
    h.fill(4)                              # exactly at high watermark
    assert h.shedder.pass_once() == 0
    assert not h.shedder.active            # > required, not >=
    h.operator.submit(make_request("tip")) # 5 > 4: activates
    assert h.shedder.pass_once() == 3      # down to low watermark 2
    assert not h.shedder.active            # reached low edge: stopped
    kinds = [r.kind for r in h.tracer]
    assert kinds == ["shedding_started", "shedding_stopped"]


def test_active_shedding_continues_below_high_watermark():
    h = Harness()
    h.fill(5)
    h.shedder.pass_once()                  # activate, drain to 2
    h.fill(1)                              # 3 pending: above low, below high
    # Re-activation needs the high watermark again — hysteresis means a
    # backlog in the dead band does not restart shedding.
    assert h.shedder.pass_once() == 0
    assert not h.shedder.active


def test_protected_tier_never_pressure_shed():
    h = Harness()
    h.fill(6, priority=3)
    shed = h.shedder.pass_once()
    assert shed == 0
    assert h.shedder.active                # backlog stuck above watermark
    assert h.operator.pending_count == 6


def test_pressure_sheds_worst_first():
    h = Harness()
    for request_id, priority, deadline in [
            ("keep_hi", 2, None), ("drop1", 1, 3.0), ("drop2", 1, None),
            ("keep_hi2", 2, 1.0), ("drop3", 1, 9.0)]:
        h.operator.submit(make_request(request_id, priority=priority,
                                       deadline=deadline))
    assert h.shedder.pass_once() == 3
    assert [entry[0] for entry in h.shed_log] == ["drop1", "drop3", "drop2"]
    assert all(reason == REASON_PRESSURE for _, reason in h.shed_log)
    assert {r.request_id for r in h.operator.pending_snapshot()} == \
        {"keep_hi", "keep_hi2"}


def test_periodic_process_runs_on_interval():
    h = Harness()
    h.fill(5)
    h.shedder.start()
    h.shedder.start()                      # idempotent
    h.env.run(until=3.5 * SHED_INTERVAL)
    assert h.shedder.shed_passes == 3
    assert h.operator.pending_count == 2
    assert len(h.shed_log) == 3


def test_passes_are_deterministic():
    def run():
        h = Harness()
        for i in range(9):
            h.operator.submit(make_request(
                f"r{i}", priority=1 + i % 3,
                deadline=None if i % 2 else float(i), created_at=float(i)))
        h.env.run(until=4.0)
        h.shedder.pass_once()
        return h.shed_log, [r.request_id
                            for r in h.operator.pending_snapshot()]
    assert run() == run()


# A drawn queue: few distinct values, so ties on every key are common.
requests = st.lists(st.tuples(
    st.integers(min_value=1, max_value=4),
    st.one_of(st.none(), st.sampled_from([1.0, 2.5, 4.0])),
    st.sampled_from([0.0, 0.5, 1.0])), min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(queue=requests)
def test_eviction_service_and_shedding_share_one_worth_order(queue):
    queue = [make_request(f"r{index}", priority=priority,
                          deadline=deadline, created_at=created_at)
             for index, (priority, deadline, created_at)
             in enumerate(queue)]
    *pending, incoming = queue
    # Eviction from a full queue drops the first of the shed order
    # over the pending entries and the incoming one.
    worst = min(((0, index, request) for index, request
                 in enumerate(queue)), key=_shed_key)[2]
    h = Harness()
    h.operator.limit = max(1, len(pending))
    evicted = []
    h.operator.on_evict = lambda victim, reason: evicted.append(victim)
    for request in pending:
        h.operator.submit(request)
    try:
        h.operator.submit(incoming)
    except QueueFullError:
        evicted.append(incoming)
    if pending:
        assert evicted == [worst]
    # Service order is the shed order with the tier reversed.
    flipped = [dataclasses.replace(request, priority=-request.priority)
               for request in queue]
    assert [request.request_id
            for request in sorted(queue, key=_service_order)] == [
        entry[2].request_id for entry in sorted(
            ((0, index, request) for index, request
             in enumerate(flipped)), key=_shed_key)]
