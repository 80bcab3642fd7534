"""Events: the one-shot occurrences the kernel schedules and fires."""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.base import Environment

#: Default priority for ordinary events. Lower sorts earlier at equal time.
PRIORITY_NORMAL = 1
#: Priority used for process-resume bookkeeping, ahead of normal events:
#: process and fan-out starts and immediate resumes.
PRIORITY_URGENT = 0

#: The value of an event that has not been triggered yet.
_PENDING: Any = object()


class Event:
    """A one-shot occurrence that callbacks can wait on.

    An event starts *pending*, is *triggered* exactly once with a value,
    and then has its callbacks run by the kernel at the scheduled
    virtual time. Events only succeed: an error is raised where it
    happens, never carried by an event.
    """

    __slots__ = ("env", "callbacks", "_value", "_processed")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = _PENDING
        self._processed = False  # set by the kernel after callbacks run

    @property
    def triggered(self) -> bool:
        """Whether the event has been given its value."""
        return self._value is not _PENDING

    @property
    def value(self) -> Any:
        """The value the event was triggered with."""
        if self._value is _PENDING:
            raise SimulationError("event value inspected before trigger")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with ``value`` and schedule its callbacks."""
        if self._value is not _PENDING:
            raise SimulationError("event triggered twice")
        self._value = value
        self.env.schedule(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.env.now:.6f}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` seconds in the future.

    The hottest constructor in the kernel: it sets its own fields and
    pushes its own queue entry at ``now + delay`` and normal priority,
    without a call to :meth:`Environment.schedule
    <repro.sim.base.Environment.schedule>`. Its value is ``None``.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float) -> None:
        if not delay >= 0:  # also refuses NaN, which compares false
            raise SimulationError(f"negative or NaN timeout delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = None
        self._processed = False
        seq = env._seq
        heappush(env._queue, (env.now + delay, PRIORITY_NORMAL, seq, self))
        env._seq = seq + 1
