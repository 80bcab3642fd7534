"""Edge-case tests for events, failure propagation and defusing."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment


def test_unwaited_failure_surfaces():
    """A failed event nobody observes must not pass silently."""
    env = Environment()

    def failing(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.process(failing(env))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_defused_failure_stays_quiet_until_observed():
    env = Environment()

    def failing(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    process = env.process(failing(env)).defuse()
    env.run()  # no raise: the failure was defused
    assert process.triggered and not process.ok
    assert isinstance(process.value, ValueError)


def test_defused_failure_delivered_to_late_waiter():
    env = Environment()

    def failing(env):
        yield env.timeout(1.0)
        raise ValueError("late boom")

    process = env.process(failing(env)).defuse()
    caught = []

    def waiter(env):
        yield env.timeout(5.0)  # attach well after the failure
        try:
            yield process
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter(env))
    env.run()
    assert caught == ["late boom"]


def test_event_value_before_trigger_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError, match="before trigger"):
        event.value
    with pytest.raises(SimulationError, match="before trigger"):
        event.ok


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(SimulationError, match="exception instance"):
        env.event().fail("not an exception")


def test_process_waiting_on_another_failed_process():
    env = Environment()
    outcomes = []

    def child(env):
        yield env.timeout(1.0)
        raise RuntimeError("child died")

    def parent(env):
        try:
            yield env.process(child(env))
        except RuntimeError as exc:
            outcomes.append(str(exc))

    env.process(parent(env))
    env.run()
    assert outcomes == ["child died"]


def test_event_queue_pop_empty():
    with pytest.raises(SimulationError, match="empty"):
        Environment().step()


def test_event_queue_orders_by_time_then_priority_then_seq():
    env = Environment()
    fired = []
    first, second, third = env.event(), env.event(), env.event()
    for event in (first, second, third):
        event._ok = True  # triggered by hand: succeed() fixes the priority
        event.callbacks.append(fired.append)
    env.schedule(first, delay=2.0, priority=1)
    env.schedule(second, delay=1.0, priority=1)
    env.schedule(third, delay=1.0, priority=0)  # urgent at the same time wins
    env.run()
    assert fired == [third, second, first]


def test_schedule_into_past_rejected():
    env = Environment()
    with pytest.raises(SimulationError, match="past"):
        env.schedule(env.event(), delay=-0.1)
