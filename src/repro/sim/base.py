"""The runtime: a clock, an event queue and the step loop.

:class:`Environment` is the one runtime class. Its clock is virtual: it
jumps from event to event, so experiments measuring seconds of device
time execute in milliseconds of wall time. ``time_scale`` paces the
same timeline against the wall clock instead — wall seconds per runtime
second: ``0`` (the default) never paces, ``1.0`` runs in real seconds.
Pacing only sleeps before a clock advance; it never reorders events, so
a paced run's trace is the unpaced run's trace.

The wall anchor is taken lazily at the first pace, so engine and device
construction never count against the schedule. When callbacks run
longer than the wall budget the runtime is behind; it does not skip
events to catch up, it simply stops sleeping until the schedule is
ahead again. Pacing reads the wall through one class attribute,
``_wall``, so a subclass paces against a fake clock without real
sleeping.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Iterable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import PRIORITY_NORMAL, Event, Timeout
from repro.sim.process import FanOut, Process, ProcessGenerator


class Environment:
    """Clock + event queue + process scheduler.

    One runtime underlies one experiment: all devices, network links
    and engine loops share it, so their relative timing is globally
    consistent.
    """

    #: The wall pacing reads: anything with ``monotonic()`` and
    #: ``sleep(seconds)``.
    _wall = time

    def __init__(self, *, time_scale: float = 0.0) -> None:
        if not 0 <= time_scale < math.inf:  # NaN as well
            raise SimulationError(
                f"time_scale must be non-negative and finite, got "
                f"{time_scale}")
        #: Current runtime time in seconds (virtual; pacing holds this
        #: timeline to the wall clock rather than keeping a second one).
        #: Monotonically non-decreasing and read-only by convention:
        #: only :meth:`step` and the closing advance of :meth:`run`
        #: assign it.
        self.now = 0.0
        #: Wall seconds per runtime second; 0 never paces.
        self.time_scale = time_scale
        #: (wall, runtime) correspondence fixed at the first pace.
        self._anchor: Optional[Tuple[float, float]] = None
        #: Pending ``(time, priority, seq, event)`` tuples as a ``heapq``:
        #: firing order is field order, every sift is a C-level tuple
        #: comparison, and the unique insertion ``seq`` decides any tie
        #: before the event itself would be compared.
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        self._events_processed = 0

    # ------------------------------------------------------------------
    # Event construction helpers
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float) -> Timeout:
        """An event that fires ``delay`` runtime seconds from now."""
        return Timeout(self, delay)

    def process(self, generator: ProcessGenerator) -> Process:
        """Start ``generator`` as a concurrent process; its uncaught
        exception propagates out of :meth:`step`."""
        return Process(self, generator)

    def fan_out(self, generators: Iterable[ProcessGenerator]) -> FanOut:
        """Start ``generators`` together; one event awaits all of them."""
        return FanOut(self, generators)

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------
    def schedule(self, event: Event, priority: int = PRIORITY_NORMAL) -> None:
        """Enqueue ``event`` to have its callbacks run at the current
        time, by ``priority``; a :class:`Timeout` is the delayed kind."""
        heapq.heappush(self._queue, (self.now, priority, self._seq, event))
        self._seq += 1

    def step(self) -> None:
        """Process the single next event in the queue."""
        if not self._queue:
            raise SimulationError("step on an empty event queue")
        timestamp, _priority, _seq, event = heapq.heappop(self._queue)
        if self.time_scale:
            self._pace(timestamp)
        if timestamp < self.now:
            # Would indicate a corrupted event queue.
            raise SimulationError(
                f"cannot move clock backwards from {self.now} to {timestamp}")
        self.now = timestamp
        self._events_processed += 1
        event._processed = True
        callbacks, event.callbacks = event.callbacks, []
        for callback in callbacks:
            callback(event)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock reaches ``until``.

        Returns the runtime time at which execution stopped.
        """
        if until is not None and not until >= self.now:  # NaN as well
            raise SimulationError(
                f"run until {until} is in the past or NaN (now={self.now})")
        queue = self._queue
        while queue and (until is None or queue[0][0] <= until):
            # Through step(), never inlined: it is the seam tracers patch.
            self.step()
        if until is not None:
            if self.time_scale:
                self._pace(until)
            self.now = until
        return self.now

    @property
    def events_processed(self) -> int:
        """Total events processed since construction (a monotone
        lifetime counter)."""
        return self._events_processed

    def _pace(self, timestamp: float) -> None:
        """Sleep until ``timestamp``'s wall deadline under the scale.

        Called before a clock advance, and only when ``time_scale`` is
        positive.
        """
        wall_now = self._wall.monotonic()
        if self._anchor is None:
            self._anchor = (wall_now, self.now)
        wall_start, runtime_start = self._anchor
        remaining = (wall_start - wall_now
                     + (timestamp - runtime_start) * self.time_scale)
        if remaining > 0:
            self._wall.sleep(remaining)


#: A second name for :class:`Environment`, bound to the same class
#: object: ``benchmarks/e2e/layertrace.py`` patches ``step`` and
#: ``process`` through ``BaseRuntime.__dict__``.
BaseRuntime = Environment
