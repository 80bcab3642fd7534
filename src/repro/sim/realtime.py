"""The wall-clock backend: the same processes, paced in real time.

:class:`RealtimeRuntime` runs the exact generator-based processes the
virtual backend runs — same events, same ordering, same traces — but
before each clock advance it sleeps until the corresponding wall-clock
deadline. ``time_scale`` maps runtime seconds to wall seconds:

* ``1.0`` — one runtime second takes one real second (live serving,
  soak tests, demos against real devices);
* ``0.5`` — double speed; ``2.0`` — half speed;
* ``0`` — never sleep: timers fire immediately in timestamp order,
  giving a fast deterministic smoke path that is byte-identical to the
  virtual backend (the equivalence tests pin this).

The wall anchor is taken lazily at the first pace, so engine/device
construction time never counts against the schedule. When callbacks
run longer than the wall budget the runtime is *behind*; it does not
try to catch up by skipping events — it simply stops sleeping until
the schedule is ahead again. ``strict=True`` turns falling behind by
more than ``max_drift`` seconds into a :class:`SimulationError`
instead, for tests that must fail loudly when the host is too slow.

The clock and sleep functions are injectable so unit tests exercise
pacing deterministically without real sleeping.
"""

from __future__ import annotations

import time as _time
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.sim.base import BaseRuntime


class RealtimeRuntime(BaseRuntime):
    """Drives the discrete-event core against the wall clock."""

    backend_name = "realtime"

    def __init__(
        self,
        start: float = 0.0,
        *,
        time_scale: float = 1.0,
        strict: bool = False,
        max_drift: float = 1.0,
        wall_clock: Callable[[], float] = _time.monotonic,
        wall_sleep: Callable[[float], None] = _time.sleep,
    ) -> None:
        if time_scale < 0:
            raise SimulationError(
                f"time_scale must be >= 0, got {time_scale}")
        if max_drift < 0:
            raise SimulationError(
                f"max_drift must be >= 0, got {max_drift}")
        super().__init__(start)
        self.time_scale = time_scale
        self.strict = strict
        self.max_drift = max_drift
        self._wall_clock = wall_clock
        self._wall_sleep = wall_sleep
        #: (wall, runtime) correspondence fixed at the first pace.
        self._wall_anchor: Optional[float] = None
        self._runtime_anchor: float = start
        #: Largest observed lateness in wall seconds (0 while ahead).
        self.max_observed_drift = 0.0

    def _pace(self, timestamp: float) -> None:
        """Sleep until ``timestamp``'s wall deadline under the scale."""
        if self.time_scale == 0:
            return
        wall_now = self._wall_clock()
        if self._wall_anchor is None:
            self._wall_anchor = wall_now
            self._runtime_anchor = self.now
        deadline = self._wall_anchor + (
            (timestamp - self._runtime_anchor) * self.time_scale)
        remaining = deadline - wall_now
        if remaining > 0:
            self._wall_sleep(remaining)
            return
        behind = -remaining
        if behind > self.max_observed_drift:
            self.max_observed_drift = behind
        if self.strict and behind > self.max_drift:
            raise SimulationError(
                f"realtime runtime fell {behind:.3f}s behind the wall "
                f"clock at t={timestamp:.6f} (max_drift={self.max_drift}); "
                f"the host cannot keep up at time_scale={self.time_scale}"
            )
