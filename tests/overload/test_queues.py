"""Unit tests for bounded operator queues and eviction order."""

import pytest

from repro.errors import QueueFullError
from repro.actions.builtins import builtin_definitions
from repro.actions.request import REASON_EVICTED, ActionRequest
from repro.plan import SharedActionOperator


@pytest.fixture
def operator():
    photo = next(d for d in builtin_definitions() if d.name == "photo")
    op = SharedActionOperator(photo)
    op.limit = 2
    return op


def make_request(request_id, *, priority=1, deadline=None, created_at=0.0):
    return ActionRequest(action_name="photo", arguments={},
                         candidates=("cam1",), request_id=request_id,
                         priority=priority, deadline=deadline,
                         created_at=created_at)


def pending_ids(operator):
    return [r.request_id for r in operator.pending_snapshot()]


def test_unbounded_by_default():
    photo = next(d for d in builtin_definitions() if d.name == "photo")
    op = SharedActionOperator(photo)
    evicted = []
    op.on_evict = lambda victim, reason: evicted.append(victim)
    for i in range(500):
        op.submit(make_request(f"r{i}"))
    assert op.pending_count == 500
    assert evicted == []


def test_full_queue_evicts_lowest_priority(operator):
    evicted = []
    operator.on_evict = lambda victim, reason: evicted.append(
        (victim.request_id, reason))
    operator.submit(make_request("low", priority=1))
    operator.submit(make_request("high", priority=3))
    operator.submit(make_request("mid", priority=2))
    assert evicted == [("low", REASON_EVICTED)]
    assert pending_ids(operator) == ["high", "mid"]


def test_incoming_worst_is_rejected(operator):
    operator.submit(make_request("a", priority=2))
    operator.submit(make_request("b", priority=2))
    with pytest.raises(QueueFullError, match="least valuable"):
        operator.submit(make_request("worst", priority=1))
    assert pending_ids(operator) == ["a", "b"]


def test_tie_breaks_on_earliest_deadline(operator):
    operator.submit(make_request("soon", priority=1, deadline=5.0))
    operator.submit(make_request("later", priority=1, deadline=9.0))
    operator.submit(make_request("undated", priority=1))
    # Same tier: the entry closest to expiring loses first.
    assert pending_ids(operator) == ["later", "undated"]


def test_undated_outranks_dated_within_tier(operator):
    operator.submit(make_request("undated", priority=1, created_at=0.0))
    operator.submit(make_request("dated", priority=1, deadline=100.0,
                                 created_at=1.0))
    with pytest.raises(QueueFullError):
        operator.submit(make_request("incoming", priority=1, deadline=50.0,
                                     created_at=2.0))
    operator.submit(make_request("keeper", priority=2, created_at=3.0))
    assert pending_ids(operator) == ["undated", "keeper"]


def test_peak_pending_high_water_mark(operator):
    operator.limit = None
    for i in range(4):
        operator.submit(make_request(f"r{i}"))
    operator.drain()
    operator.submit(make_request("after"))
    assert operator.peak_pending == 4
    assert operator.pending_count == 1


def test_discard_and_snapshot(operator):
    request = make_request("target")
    operator.submit(request)
    snapshot = operator.pending_snapshot()
    assert operator.discard(request) is True
    assert operator.discard(request) is False     # already gone
    assert operator.pending_count == 0
    assert snapshot == [request]                  # snapshot was a copy


def test_eviction_is_deterministic():
    def run():
        photo = next(d for d in builtin_definitions()
                     if d.name == "photo")
        op = SharedActionOperator(photo)
        op.limit = 3
        log = []
        op.on_evict = lambda victim, reason: log.append(victim.request_id)
        for i in range(12):
            try:
                op.submit(make_request(
                    f"r{i}", priority=1 + i % 3,
                    deadline=None if i % 4 == 0 else float(20 - i),
                    created_at=float(i)))
            except QueueFullError:
                log.append(f"reject:r{i}")
        return log, pending_ids(op)
    assert run() == run()
