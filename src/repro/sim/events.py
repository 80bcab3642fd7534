"""Events: the one-shot occurrences the kernel schedules and fires."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.base import BaseRuntime

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

    def __init__(self, env: "BaseRuntime") -> None:
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
    """An event that fires automatically ``delay`` seconds in the future."""

    def __init__(self, env: "BaseRuntime", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        super().__init__(env)
        self._value = value
        env.schedule(self, delay=delay)
