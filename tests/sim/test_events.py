"""Edge-case tests for events and failure propagation."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment


def test_unwaited_failure_surfaces():
    """A process's uncaught exception must not pass silently."""
    env = Environment()

    def failing(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.process(failing(env))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_defused_failure_stays_quiet_until_observed():
    """A fan-out member's uncaught exception is defused: run() does not
    raise it, and the fan-out hands it to whoever reads its value."""
    env = Environment()
    boom = ValueError("boom")

    def failing(env):
        yield env.timeout(1.0)
        raise boom

    fan_out = env.fan_out([failing(env)])
    env.run()  # no raise: nobody has observed the failure yet
    assert fan_out.triggered
    assert fan_out.value == [boom]
    assert env.now == 1.0


def test_event_value_before_trigger_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError, match="before trigger"):
        event.value
    assert not event.triggered


def test_process_waiting_on_another_failed_process():
    """Nothing waits on a process: a parent waits on its child as a
    fan-out member and finds the child's exception among the results."""
    env = Environment()
    outcomes = []

    def child(env):
        yield env.timeout(1.0)
        raise RuntimeError("child died")

    def parent(env):
        [error] = yield env.fan_out([child(env)])
        outcomes.append((env.now, str(error)))

    env.process(parent(env))
    env.run()
    assert outcomes == [(1.0, "child died")]


def test_event_queue_pop_empty():
    with pytest.raises(SimulationError, match="empty"):
        Environment().step()


def test_event_queue_orders_by_time_then_priority_then_seq():
    env = Environment()
    fired = []
    first = env.timeout(2.0)
    env.run(until=1.0)
    second, third = env.timeout(0.0), env.event()
    for event in (first, second, third):
        event.callbacks.append(fired.append)
    # Scheduled by hand: succeed() fixes the priority.
    env.schedule(third, priority=0)  # urgent at the same time wins
    env.run()
    assert fired == [third, second, first]


def test_schedule_into_past_rejected():
    """``schedule`` enqueues at ``now``; a timeout is the one event
    with a delay, and it refuses a negative one."""
    env = Environment()
    with pytest.raises(SimulationError, match="negative"):
        env.timeout(-0.1)
