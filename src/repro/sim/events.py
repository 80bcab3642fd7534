"""Events and the pending-event queue of the kernel."""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.base import BaseRuntime

#: Default priority for ordinary events. Lower sorts earlier at equal time.
PRIORITY_NORMAL = 1
#: Priority used for process-resume bookkeeping, ahead of normal events.
PRIORITY_URGENT = 0


class Event:
    """A one-shot occurrence that callbacks can wait on.

    An event starts *pending*, is *triggered* exactly once with a value
    (or failure), and then has its callbacks run by the kernel at the
    scheduled virtual time.
    """

    def __init__(self, env: "BaseRuntime") -> None:
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None  # None => not yet triggered
        self._scheduled = False
        self._processed = False  # set by the kernel after callbacks run

    @property
    def triggered(self) -> bool:
        """Whether the event has been given a value (success or failure)."""
        return self._ok is not None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded. Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event value inspected before trigger")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception of the event."""
        if self._ok is None:
            raise SimulationError("event value inspected before trigger")
        return self._value

    def defuse(self) -> "Event":
        """Mark a potential failure of this event as handled-later.

        The kernel normally re-raises a failed event that nobody waits
        on (errors must not pass silently). A caller that spawns work
        and will only attach to it later — e.g. a scan operator awaiting
        parallel row acquisitions in order — defuses the event first so
        the failure is delivered at the ``yield`` instead.
        """
        self._defused = True  # type: ignore[attr-defined]
        return self

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully and schedule its callbacks."""
        self._trigger(True, value, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed; waiters will see the exception."""
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail requires an exception instance")
        self._trigger(False, exception, delay)
        return self

    def _trigger(self, ok: bool, value: Any, delay: float) -> None:
        if self._ok is not None:
            raise SimulationError("event triggered twice")
        self._ok = ok
        self._value = value
        self.env.schedule(self, delay=delay)
        self._scheduled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self._ok is None else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at t={self.env.now:.6f}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` seconds in the future."""

    def __init__(self, env: "BaseRuntime", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)
        self._scheduled = True


class ScheduledItem(NamedTuple):
    """A queue entry as diagnostics see it: firing order is field order."""

    time: float
    priority: int
    seq: int
    event: Event


class EventQueue:
    """A stable priority queue of scheduled events.

    Entries are plain ``(time, priority, seq, event)`` tuples, so every
    heap sift is a C-level tuple comparison; ``seq`` is unique, which
    decides any tie before the event itself would be compared.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, priority: int, event: Event) -> None:
        heapq.heappush(self._heap, (time, priority, self._seq, event))
        self._seq += 1

    def pop(self) -> tuple[float, int, int, Event]:
        """Remove and return the next ``(time, priority, seq, event)``."""
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        return heapq.heappop(self._heap)

    def peek_time(self) -> float:
        """Timestamp of the next event without removing it."""
        if not self._heap:
            raise SimulationError("peek on an empty event queue")
        return self._heap[0][0]

    def peek_items(self, limit: int) -> list[ScheduledItem]:
        """Up to ``limit`` next items in firing order, without removal.

        Diagnostic helper for the run-budget error path; O(k log n).
        """
        return [ScheduledItem(*entry)
                for entry in heapq.nsmallest(max(limit, 0), self._heap)]
