"""A fake wall clock for pacing tests.

The clock only moves when the runtime sleeps on it, so a paced run is
deterministic and instant, and the sleeps it records add up to the
wall time the run would have taken.
"""

from __future__ import annotations

from typing import List

from repro.sim import Environment


class FakeWall:
    """A controllable monotonic clock whose sleep() advances it: the
    two calls ``Environment`` makes of the ``time`` module."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start
        self.sleeps: List[float] = []

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        assert seconds > 0, "runtime must not sleep non-positive spans"
        self.sleeps.append(seconds)
        self.now += seconds


class PacedEnvironment(Environment):
    """A runtime paced at ``time_scale`` against ``wall`` instead of the
    real clock."""

    def __init__(self, wall: FakeWall, time_scale: float = 1.0) -> None:
        super().__init__(time_scale=time_scale)
        self._wall = wall
