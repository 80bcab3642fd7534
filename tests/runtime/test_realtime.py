"""Unit tests of the RealtimeRuntime backend.

Pacing is exercised with injected fake wall-clock/sleep functions, so
these tests are fast and fully deterministic: the "wall clock" only
moves when the recorded sleep function advances it.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.realtime import RealtimeRuntime


class FakeWall:
    """A controllable monotonic clock whose sleep() advances it."""

    def __init__(self, start: float = 100.0, *, busy_per_event: float = 0.0):
        self.now = start
        self.sleeps: list[float] = []
        #: Wall time silently consumed between sleeps (models slow
        #: callbacks) — added on every clock read after the first.
        self.busy_per_event = busy_per_event

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        assert seconds > 0, "runtime must not sleep non-positive spans"
        self.sleeps.append(seconds)
        self.now += seconds


def make_runtime(time_scale: float, wall: FakeWall, **kwargs):
    return RealtimeRuntime(time_scale=time_scale,
                           wall_clock=wall.clock,
                           wall_sleep=wall.sleep, **kwargs)


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def test_negative_time_scale_rejected():
    with pytest.raises(SimulationError):
        RealtimeRuntime(time_scale=-0.5)


def test_negative_max_drift_rejected():
    with pytest.raises(SimulationError):
        RealtimeRuntime(max_drift=-1.0)


# ----------------------------------------------------------------------
# Timer ordering
# ----------------------------------------------------------------------
@pytest.mark.parametrize("time_scale", [0, 1.0])
def test_timers_fire_in_timestamp_order_not_creation_order(time_scale):
    wall = FakeWall()
    env = make_runtime(time_scale, wall)
    fired = []

    def waiter(delay, tag):
        yield env.timeout(delay)
        fired.append((tag, env.now))

    # Created deliberately out of firing order.
    env.process(waiter(3.0, "late"))
    env.process(waiter(1.0, "early"))
    env.process(waiter(2.0, "middle"))
    env.run()
    assert fired == [("early", 1.0), ("middle", 2.0), ("late", 3.0)]


def test_equal_timestamps_keep_fifo_order():
    wall = FakeWall()
    env = make_runtime(1.0, wall)
    fired = []

    def waiter(tag):
        yield env.timeout(2.0)
        fired.append(tag)

    for tag in ("a", "b", "c"):
        env.process(waiter(tag))
    env.run()
    assert fired == ["a", "b", "c"]


# ----------------------------------------------------------------------
# Pacing
# ----------------------------------------------------------------------
def test_time_scale_zero_never_sleeps():
    wall = FakeWall()
    env = make_runtime(0, wall)

    def proc():
        yield env.timeout(5.0)
        yield env.timeout(5.0)

    env.process(proc())
    env.run()
    assert env.now == 10.0
    assert wall.sleeps == []


def test_sleeps_match_scaled_inter_event_gaps():
    wall = FakeWall()
    env = make_runtime(2.0, wall)

    def proc():
        yield env.timeout(1.0)
        yield env.timeout(3.0)

    env.process(proc())
    env.run()
    # Process bootstrap fires at t=0 (no sleep), then t=1 and t=4 under
    # scale 2.0: sleeps of 2 and 6 wall seconds.
    assert wall.sleeps == [pytest.approx(2.0), pytest.approx(6.0)]


def test_run_until_paces_to_the_deadline():
    wall = FakeWall()
    env = make_runtime(1.0, wall)

    def proc():
        yield env.timeout(1.0)

    env.process(proc())
    env.run(until=10.0)
    assert env.now == 10.0
    # One wall second to reach the timer, nine more to the deadline.
    assert sum(wall.sleeps) == pytest.approx(10.0)


def test_behind_schedule_runs_flat_out_and_records_drift():
    # Each clock read consumes 2 wall seconds (slow host): the runtime
    # must not sleep, must not raise (non-strict), and must record how
    # far behind it fell.
    wall = FakeWall()
    env = make_runtime(0.1, wall)

    def proc():
        for _ in range(3):
            yield env.timeout(1.0)

    env.process(proc())

    original_clock = wall.clock

    def busy_clock():
        wall.now += 2.0
        return original_clock()

    env._wall_clock = busy_clock
    env.run()
    assert env.now == 3.0
    assert wall.sleeps == []
    assert env.max_observed_drift > 0


def test_strict_mode_raises_when_drift_exceeds_budget():
    wall = FakeWall()
    env = make_runtime(0.1, wall, strict=True, max_drift=0.5)

    def proc():
        for _ in range(3):
            yield env.timeout(1.0)

    env.process(proc())

    original_clock = wall.clock

    def busy_clock():
        wall.now += 2.0
        return original_clock()

    env._wall_clock = busy_clock
    with pytest.raises(SimulationError, match="behind the wall clock"):
        env.run()
