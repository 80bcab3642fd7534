"""Unit tests of pacing: ``Environment(time_scale=...)``.

Pacing is exercised on ``PacedEnvironment``, a subclass whose wall is
a fake clock, so these tests are fast and fully deterministic: the
"wall clock" only moves when the recorded sleep advances it.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import SimulationError
from repro.sim import Environment
from tests.sim.fake_wall import FakeWall, PacedEnvironment


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def test_negative_time_scale_rejected():
    with pytest.raises(SimulationError):
        Environment(time_scale=-0.5)


@pytest.mark.parametrize("time_scale", [math.nan, math.inf])
def test_nan_and_infinite_time_scales_are_refused(time_scale):
    # NaN used to construct and never sleep (its deadline is NaN); inf
    # asked for sleep(inf) at every gap, which time.sleep refuses.
    with pytest.raises(SimulationError, match="time_scale"):
        Environment(time_scale=time_scale)


# ----------------------------------------------------------------------
# Timer ordering
# ----------------------------------------------------------------------
@pytest.mark.parametrize("time_scale", [0, 1.0])
def test_timers_fire_in_timestamp_order_not_creation_order(time_scale):
    env = PacedEnvironment(FakeWall(), time_scale)
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
    env = PacedEnvironment(FakeWall())
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
    env = PacedEnvironment(wall, 0)

    def proc():
        yield env.timeout(5.0)
        yield env.timeout(5.0)

    env.process(proc())
    env.run()
    assert env.now == 10.0
    assert wall.sleeps == []


def test_sleeps_match_scaled_inter_event_gaps():
    wall = FakeWall()
    env = PacedEnvironment(wall, 2.0)

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
    env = PacedEnvironment(wall)

    def proc():
        yield env.timeout(1.0)

    env.process(proc())
    env.run(until=10.0)
    assert env.now == 10.0
    # One wall second to reach the timer, nine more to the deadline.
    assert sum(wall.sleeps) == pytest.approx(10.0)


def test_behind_schedule_runs_flat_out():
    # Each clock read consumes 2 wall seconds (slow host): the runtime
    # must not sleep and must not skip or reorder events.
    class BusyWall(FakeWall):
        def monotonic(self):
            self.now += 2.0
            return self.now

    wall = BusyWall()
    env = PacedEnvironment(wall, 0.1)
    fired = []

    def proc():
        for _ in range(3):
            yield env.timeout(1.0)
            fired.append(env.now)

    env.process(proc())
    env.run()
    assert fired == [1.0, 2.0, 3.0]
    assert wall.sleeps == []
