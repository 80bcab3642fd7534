"""Events: the one-shot occurrences the kernel schedules and fires."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.base import BaseRuntime

#: Default priority for ordinary events. Lower sorts earlier at equal time.
PRIORITY_NORMAL = 1
#: Priority used for process-resume bookkeeping, ahead of normal events:
#: process and fan-out starts and immediate resumes.
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
        self._processed = False  # set by the kernel after callbacks run
        self._defused = False  # True => a waiter will see the failure

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
        and will only attach to it later — e.g. a dispatcher awaiting
        parallel executions in order — defuses the event first so the
        failure is delivered at the ``yield`` instead.
        """
        self._defused = True
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self._ok is None else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at t={self.env.now:.6f}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` seconds in the future."""

    def __init__(self, env: "BaseRuntime", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        super().__init__(env)
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)
