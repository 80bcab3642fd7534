"""Unit tests for the simulated FIFO lock."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, SimLock


def test_uncontended_lock_grants_immediately():
    env = Environment()
    lock = SimLock(env)
    seen = []

    def proc(env):
        yield lock.acquire("a")
        seen.append(env.now)
        lock.release("a")

    env.process(proc(env))
    env.run()
    assert seen == [0.0]
    assert not lock.locked


def test_contended_lock_is_fifo():
    env = Environment()
    lock = SimLock(env)
    order = []

    def proc(env, name, hold):
        yield lock.acquire(name)
        order.append((name, env.now))
        yield env.timeout(hold)
        lock.release(name)

    env.process(proc(env, "first", 2.0))
    env.process(proc(env, "second", 1.0))
    env.process(proc(env, "third", 1.0))
    env.run()
    assert order == [("first", 0.0), ("second", 2.0), ("third", 3.0)]


def test_release_by_non_holder_rejected():
    env = Environment()
    lock = SimLock(env)

    def proc(env):
        yield lock.acquire("owner")
        with pytest.raises(SimulationError):
            lock.release("impostor")
        lock.release("owner")

    env.process(proc(env))
    env.run()


def test_reentrant_acquire_rejected():
    env = Environment()
    lock = SimLock(env)

    def proc(env):
        yield lock.acquire("a")
        with pytest.raises(SimulationError):
            lock.acquire("a")
        lock.release("a")

    env.process(proc(env))
    env.run()


def test_lock_cancel_removes_waiter():
    env = Environment()
    lock = SimLock(env)
    served = []

    def holder(env):
        yield lock.acquire("holder")
        yield env.timeout(5.0)
        lock.release("holder")

    def impatient(env):
        yield env.timeout(1.0)
        lock.acquire("impatient")
        yield env.timeout(1.0)
        assert lock.cancel("impatient") is True

    def patient(env):
        yield env.timeout(1.5)
        yield lock.acquire("patient")
        served.append(env.now)
        lock.release("patient")

    env.process(holder(env))
    env.process(impatient(env))
    env.process(patient(env))
    env.run()
    assert served == [5.0]


def test_cancel_unknown_token_returns_false():
    env = Environment()
    lock = SimLock(env)
    assert lock.cancel("nobody") is False


def test_none_token_rejected():
    env = Environment()
    lock = SimLock(env)
    with pytest.raises(SimulationError):
        lock.acquire(None)
