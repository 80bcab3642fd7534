"""Unit tests for the shared action operator."""

import pytest

from repro.errors import RegistrationError, SchedulingError
from repro.actions.builtins import builtin_definitions
from repro.actions.request import ActionRequest
from repro.plan import SharedActionOperator


@pytest.fixture
def operator():
    photo = next(d for d in builtin_definitions() if d.name == "photo")
    return SharedActionOperator(photo)


def make_request(query_id=""):
    return ActionRequest(action_name="photo", arguments={},
                         query_id=query_id, candidates=("cam1",))


def test_attach_detach(operator):
    operator.attach("q1")
    operator.attach("q2")
    assert operator.shared
    operator.detach("q1")
    assert not operator.shared


def test_double_attach_rejected(operator):
    operator.attach("q1")
    with pytest.raises(RegistrationError, match="already attached"):
        operator.attach("q1")


def test_submit_and_drain_preserve_order(operator):
    operator.attach("q1")
    first, second = make_request("q1"), make_request("q1")
    operator.submit(first)
    operator.submit(second)
    assert operator.pending_count == 2
    assert operator.drain() == [first, second]
    assert operator.pending_count == 0


def test_requests_tagged_by_query_share_one_operator(operator):
    """Section 2.3: tuples carry query IDs through the shared operator."""
    operator.attach("q1")
    operator.attach("q2")
    operator.submit(make_request("q1"))
    operator.submit(make_request("q2"))
    batch = operator.drain()
    assert [r.query_id for r in batch] == ["q1", "q2"]


def test_submit_wrong_action_rejected(operator):
    request = ActionRequest(action_name="beep", arguments={},
                            candidates=("m1",))
    with pytest.raises(SchedulingError, match="submitted to the"):
        operator.submit(request)


def test_submit_from_unattached_query_rejected(operator):
    with pytest.raises(SchedulingError, match="not attached"):
        operator.submit(make_request("ghost"))


def test_detach_discards_pending_of_that_query(operator):
    operator.attach("q1")
    operator.attach("q2")
    orphan = make_request("q1")
    operator.submit(orphan)
    operator.submit(make_request("q2"))
    assert operator.detach("q1") == [orphan]
    assert [r.query_id for r in operator.drain()] == ["q2"]


def test_on_submit_callback_fires(operator):
    operator.attach("q1")
    seen = []
    operator.on_submit = seen.append
    request = make_request("q1")
    operator.submit(request)
    assert seen == [request]
