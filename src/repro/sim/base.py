"""The shared engine core behind every runtime backend.

:class:`BaseRuntime` owns everything the two backends have in common —
the event queue, event/timeout/process construction, scheduling, the
step loop and quiescence detection. What *differs* between backends is
only how the passage of time is realised, expressed through one hook:
:meth:`BaseRuntime._pace`, called with the timestamp the clock is about
to advance to. The virtual backend (:class:`~repro.sim.kernel.
Environment`) jumps instantly; the wall-clock backend (:class:`~repro.
sim.realtime.RealtimeRuntime`) sleeps until the scaled wall deadline
first.

Because *all* process/event semantics live here, the two backends are
behaviourally identical by construction: at ``time_scale=0`` the
realtime backend produces byte-identical traces to the virtual one
(asserted forever by ``tests/runtime/test_equivalence.py``).
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import PRIORITY_NORMAL, Event, Timeout
from repro.sim.process import FanOut, Process, ProcessGenerator


class BaseRuntime:
    """Clock + event queue + process scheduler, backend-agnostic.

    One runtime underlies one experiment: all devices, network links
    and engine loops share it, so their relative timing is globally
    consistent. Subclasses choose how time passes by overriding
    :meth:`_pace`.
    """

    #: Name the factory and diagnostics know this backend by.
    backend_name = "base"

    def __init__(self, start: float = 0.0) -> None:
        if not start >= 0:  # also refuses NaN, which compares false
            raise SimulationError(
                f"clock cannot start at negative or NaN time {start}")
        #: Current runtime time in seconds (virtual for both backends:
        #: the realtime backend paces the same timeline against the wall
        #: clock rather than keeping a separate one). Monotonically
        #: non-decreasing and read-only by convention: only :meth:`step`
        #: and the closing advance of :meth:`run` assign it.
        self.now = float(start)
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

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` runtime seconds from now."""
        return Timeout(self, delay, value)

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
    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = PRIORITY_NORMAL
    ) -> None:
        """Enqueue ``event`` to have its callbacks run after ``delay``."""
        if not delay >= 0:  # also refuses NaN, which compares false
            raise SimulationError(
                f"cannot schedule into the past or at NaN (delay={delay})")
        heapq.heappush(self._queue, (self.now + delay, priority, self._seq, event))
        self._seq += 1

    def step(self) -> None:
        """Process the single next event in the queue."""
        if not self._queue:
            raise SimulationError("step on an empty event queue")
        timestamp, _priority, _seq, event = heapq.heappop(self._queue)
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

    def run(
        self,
        until: Optional[float] = None,
        *,
        max_events: Optional[int] = None,
    ) -> float:
        """Run until the queue drains or the clock reaches ``until``.

        ``max_events`` bounds how many events may be processed in this
        call; exceeding it raises :class:`SimulationError` carrying the
        current time and a summary of the pending queue — the diagnostic
        for a runaway process that would otherwise loop forever.

        Returns the runtime time at which execution stopped.
        """
        if until is not None and not until >= self.now:  # NaN as well
            raise SimulationError(
                f"run until {until} is in the past or NaN (now={self.now})")
        if max_events is not None and max_events < 0:
            raise SimulationError(f"max_events must be >= 0, got {max_events}")
        queue = self._queue
        processed = 0
        while queue and (until is None or queue[0][0] <= until):
            if max_events is not None and processed >= max_events:
                raise SimulationError(
                    f"event budget exhausted: processed {processed} events "
                    f"by t={self.now:.6f} with {len(queue)} still "
                    f"pending ({self._pending_summary()}); a process is "
                    f"likely scheduling work faster than it completes"
                )
            # Through step(), never inlined: it is the seam tracers patch.
            self.step()
            processed += 1
        if until is not None:
            self._pace(until)
            if until < self.now:
                raise SimulationError(
                    f"cannot move clock backwards from {self.now} to {until}")
            self.now = until
        return self.now

    @property
    def pending_events(self) -> int:
        """Number of events still waiting in the queue."""
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        """Total events processed since construction.

        A monotone lifetime counter: callers that need the cost of one
        ``run`` call (e.g. the lockstep fleet budget) difference it
        around the call instead of threading a count through ``run``'s
        return value.
        """
        return self._events_processed

    def _pending_summary(self, limit: int = 3) -> str:
        """The next few pending events, rendered for error messages."""
        head = heapq.nsmallest(limit, self._queue)
        if not head:
            return "queue empty"
        rendered = ", ".join(
            f"t={time:.6f} p={priority} {type(event).__name__}"
            for time, priority, _seq, event in head
        )
        remainder = len(self._queue) - len(head)
        if remainder > 0:
            rendered += f", ... {remainder} more"
        return f"next: {rendered}"

    # ------------------------------------------------------------------
    # Backend hook
    # ------------------------------------------------------------------
    def _pace(self, timestamp: float) -> None:
        """Realise the passage of time up to ``timestamp``.

        Called once before every clock advance (each processed event,
        and the final advance of a bounded ``run``). The virtual
        backend does nothing — time jumps; the realtime backend sleeps
        until the scaled wall-clock deadline.
        """
