"""Generator-based simulation processes."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.errors import SimulationError
from repro.sim.events import PRIORITY_URGENT, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.base import BaseRuntime

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """Wraps a generator so it can run as a concurrent simulation process.

    The process itself is an :class:`Event` that triggers when the
    generator finishes — so processes can wait on each other by yielding
    another process.
    """

    def __init__(self, env: "BaseRuntime", generator: ProcessGenerator) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                "Process requires a generator; did you call the function?"
            )
        super().__init__(env)
        self._generator = generator
        # Kick off the process at the current time, ahead of normal events.
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap._ok = True
        bootstrap._value = None
        env.schedule(bootstrap, priority=PRIORITY_URGENT)

    @property
    def is_alive(self) -> bool:
        """Whether the underlying generator has not yet finished."""
        return self._ok is None

    def _resume(self, event: Event) -> None:
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Exception as exc:
            # The process body raised: fail the process event so waiters
            # see the exception; with no waiter the kernel re-raises it.
            self.fail(exc)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {target!r}; processes must yield Event objects"
            )
        if target._processed:
            # Already done: schedule an immediate resume preserving order.
            immediate = Event(self.env)
            immediate.callbacks.append(self._resume)
            immediate._ok = target._ok
            immediate._value = target._value
            if not target._ok:
                target._defused = True
                immediate._defused = True
            self.env.schedule(immediate, priority=PRIORITY_URGENT)
        else:
            target.callbacks.append(self._resume)
            # Waiting on an event defuses its failure for the kernel; the
            # exception will be re-raised inside this process instead.
            target._defused = True
