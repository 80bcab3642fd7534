"""Unit tests for the device locking mechanism (paper Section 4)."""

import pytest

from repro.errors import SimulationError
from repro.obs import Observability
from repro.sim import Environment
from repro.sync import DeviceLockManager, LockToken


def counted(manager, name):
    """One ``lock.*`` count from the manager's registry."""
    return manager.obs.registry.totals().get(f"lock.{name}", 0)


def test_tokens_are_unique():
    a, b = LockToken("req1"), LockToken("req1")
    assert a != b


def test_acquire_release_cycle():
    env = Environment()
    manager = DeviceLockManager(env, Observability(env))
    token = LockToken("req1")

    def proc(env):
        yield from manager.acquire("cam1", token)
        assert manager.is_locked("cam1")
        manager.release("cam1", token)
        assert not manager.is_locked("cam1")

    env.process(proc(env))
    env.run()


def test_second_action_waits_for_unlock():
    env = Environment()
    manager = DeviceLockManager(env, Observability(env))
    serviced = []

    def action(env, name, hold):
        token = LockToken(name)
        yield from manager.acquire("cam1", token)
        serviced.append((name, env.now))
        yield env.timeout(hold)
        manager.release("cam1", token)

    env.process(action(env, "first", 2.0))
    env.process(action(env, "second", 1.0))
    env.run()
    assert serviced == [("first", 0.0), ("second", 2.0)]


def test_locks_are_per_device():
    env = Environment()
    manager = DeviceLockManager(env, Observability(env))
    serviced = []

    def action(env, device, name):
        token = LockToken(name)
        yield from manager.acquire(device, token)
        serviced.append((name, env.now))
        yield env.timeout(1.0)
        manager.release(device, token)

    env.process(action(env, "cam1", "on_cam1"))
    env.process(action(env, "cam2", "on_cam2"))
    env.run()
    # Different devices do not serialize.
    assert serviced == [("on_cam1", 0.0), ("on_cam2", 0.0)]


def test_contention_counters():
    env = Environment()
    manager = DeviceLockManager(env, Observability(env))

    def action(env, name, hold):
        token = LockToken(name)
        yield from manager.acquire("cam1", token)
        yield env.timeout(hold)
        manager.release("cam1", token)

    env.process(action(env, "a", 1.0))
    env.process(action(env, "b", 1.0))
    env.run()
    assert counted(manager, "acquisitions") == 2
    assert counted(manager, "contended") == 1


def test_release_by_non_holder_rejected():
    env = Environment()
    manager = DeviceLockManager(env, Observability(env))
    token = LockToken("a")

    def proc(env):
        yield from manager.acquire("cam1", token)
        with pytest.raises(SimulationError, match="not the holder"):
            manager.release("cam1", LockToken("b"))
        manager.release("cam1", token)

    env.process(proc(env))
    env.run()


def test_cancel_queued_request():
    env = Environment()
    manager = DeviceLockManager(env, Observability(env))
    waiter_token = LockToken("waiter")
    holder_token = LockToken("holder")

    def holder(env):
        yield from manager.acquire("cam1", holder_token)
        yield env.timeout(2.0)
        assert manager.cancel("cam1", waiter_token) is True
        manager.release("cam1", holder_token)

    def waiter(env):
        yield env.timeout(1.0)
        manager._lock_for("cam1").acquire(waiter_token)

    env.process(holder(env))
    env.process(waiter(env))
    env.run()
    assert not manager.is_locked("cam1")


def test_recover_frees_a_dead_holders_lock():
    env = Environment()
    manager = DeviceLockManager(env, Observability(env))
    dead_token = LockToken("dead")
    serviced = []

    def dead_holder(env):
        yield from manager.acquire("cam1", dead_token)
        # Never releases: the executor died mid-action.

    def waiter(env):
        token = LockToken("waiter")
        yield from manager.acquire("cam1", token)
        serviced.append(env.now)
        manager.release("cam1", token)

    def operator(env):
        yield env.timeout(5.0)
        assert manager.recover("cam1") is dead_token

    env.process(dead_holder(env))
    env.process(waiter(env))
    env.process(operator(env))
    env.run()
    assert serviced == [5.0]
    assert counted(manager, "recoveries") == 1
    assert not manager.is_locked("cam1")


def test_recover_on_free_lock_is_a_noop():
    env = Environment()
    manager = DeviceLockManager(env, Observability(env))
    assert manager.recover("cam1") is None
    assert counted(manager, "recoveries") == 0


def test_lease_expiry_auto_recovers_the_lock():
    env = Environment()
    manager = DeviceLockManager(env, Observability(env))
    serviced = []

    def dead_holder(env):
        yield from manager.acquire("cam1", LockToken("dead"),
                                   lease_seconds=3.0)
        # Never releases; the lease timer evicts it at t=3.

    def waiter(env):
        token = LockToken("waiter")
        yield from manager.acquire("cam1", token)
        serviced.append(env.now)
        manager.release("cam1", token)

    env.process(dead_holder(env))
    env.process(waiter(env))
    env.run()
    assert serviced == [3.0]
    assert counted(manager, "recoveries") == 1


def test_release_after_recovery_is_silent():
    env = Environment()
    manager = DeviceLockManager(env, Observability(env))
    slow_token = LockToken("slow")
    serviced = []

    def slow_holder(env):
        yield from manager.acquire("cam1", slow_token, lease_seconds=2.0)
        yield env.timeout(5.0)  # outlives the lease but does finish
        manager.release("cam1", slow_token)

    def waiter(env):
        token = LockToken("waiter")
        yield from manager.acquire("cam1", token)
        serviced.append(env.now)
        yield env.timeout(10.0)
        manager.release("cam1", token)

    env.process(slow_holder(env))
    env.process(waiter(env))
    env.run()
    # The waiter got the lock at lease expiry, and the slow holder's
    # late release neither raised nor stole the waiter's lock.
    assert serviced == [2.0]
    assert counted(manager, "recoveries") == 1


def test_lease_does_not_fire_after_normal_release():
    env = Environment()
    manager = DeviceLockManager(env, Observability(env))

    def holder(env):
        token = LockToken("holder")
        yield from manager.acquire("cam1", token, lease_seconds=10.0)
        yield env.timeout(1.0)
        manager.release("cam1", token)

    def reacquirer(env):
        yield env.timeout(2.0)
        token = LockToken("next")
        yield from manager.acquire("cam1", token)
        yield env.timeout(20.0)  # still holding when the old lease fires
        manager.release("cam1", token)

    env.process(holder(env))
    env.process(reacquirer(env))
    env.run()
    # The first holder released in time: its lease timer must not evict
    # the unrelated current holder.
    assert counted(manager, "recoveries") == 0


def test_queue_length_reporting():
    env = Environment()
    manager = DeviceLockManager(env, Observability(env))

    def holder(env):
        token = LockToken("holder")
        yield from manager.acquire("cam1", token)
        yield env.timeout(3.0)
        manager.release("cam1", token)

    def waiter(env, name):
        token = LockToken(name)
        yield from manager.acquire("cam1", token)
        manager.release("cam1", token)

    def observer(env):
        yield env.timeout(1.0)
        assert manager.queue_length("cam1") == 2

    env.process(holder(env))
    env.process(waiter(env, "w1"))
    env.process(waiter(env, "w2"))
    env.process(observer(env))
    env.run()
