"""A fake wall clock for pacing tests.

The clock only moves when the runtime sleeps on it, so a paced run is
deterministic and instant, and the sleeps it records add up to the
wall time the run would have taken.
"""

from __future__ import annotations

from typing import List

from repro.sim import Environment


class FakeWall:
    """A controllable monotonic clock whose sleep() advances it."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start
        self.sleeps: List[float] = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        assert seconds > 0, "runtime must not sleep non-positive spans"
        self.sleeps.append(seconds)
        self.now += seconds


def paced_environment(wall: FakeWall,
                      time_scale: float = 1.0) -> Environment:
    """A runtime paced at ``time_scale`` against ``wall``."""
    return Environment(time_scale=time_scale, wall_clock=wall.clock,
                       wall_sleep=wall.sleep)
