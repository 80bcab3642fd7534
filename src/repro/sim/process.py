"""Generator-based simulation processes and fan-outs of them."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, List

from repro.errors import SimulationError
from repro.sim.events import PRIORITY_URGENT, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.base import BaseRuntime

ProcessGenerator = Generator[Event, Any, Any]


def _schedule_start(env: "BaseRuntime",
                    resume: Callable[[Event], None]) -> None:
    """Schedule ``resume`` at the current time, ahead of normal events."""
    start = Event(env)
    start.callbacks.append(resume)
    start._ok = True
    env.schedule(start, priority=PRIORITY_URGENT)


class _Driver:
    """Resumes a generator from the callbacks of the events it yields.

    What the generator's end means is the subclass's :meth:`_end`.
    """

    env: "BaseRuntime"

    def __init__(self, generator: ProcessGenerator) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                "a process requires a generator; did you call the function?"
            )
        self._generator = generator

    def _end(self, ok: bool, value: Any) -> None:
        raise NotImplementedError

    def _resume(self, event: Event) -> None:
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self._end(True, stop.value)
            return
        except Exception as exc:
            self._end(False, exc)
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
            # exception will be re-raised inside this generator instead.
            target._defused = True


class Process(_Driver, Event):
    """Wraps a generator so it can run as a concurrent simulation process.

    The process itself is an :class:`Event` that triggers when the
    generator finishes — so processes can wait on each other by yielding
    another process.
    """

    def __init__(self, env: "BaseRuntime", generator: ProcessGenerator) -> None:
        _Driver.__init__(self, generator)
        Event.__init__(self, env)
        _schedule_start(env, self._resume)

    @property
    def is_alive(self) -> bool:
        """Whether the underlying generator has not yet finished."""
        return self._ok is None

    def _end(self, ok: bool, value: Any) -> None:
        if ok:
            self.succeed(value)
        else:
            # The body raised: fail the process event so waiters see the
            # exception; with no waiter the kernel re-raises it.
            self.fail(value)


class _Member(_Driver):
    """One generator of a :class:`FanOut`: no event of its own."""

    def __init__(self, fan_out: "FanOut", index: int,
                 generator: ProcessGenerator) -> None:
        super().__init__(generator)
        self.env = fan_out.env
        self._fan_out = fan_out
        self._index = index

    def _end(self, ok: bool, value: Any) -> None:
        self._fan_out._member_ended(self._index, value)


class FanOut(Event):
    """Generators started together, awaited as one event.

    All members start at one urgent start event, in input order — the
    instant and order ``n`` processes created in a row would start at —
    and each is then resumed straight from the callbacks of the events
    it yields. The fan-out triggers once, when the last member ends,
    with every member's result in input order; a member that raised
    contributes its exception, which the kernel never re-raises: the
    caller decides at the ``yield`` what it means. The completion takes
    the slot the last member's process end would have taken, so the
    members cost the kernel two events beyond their own where ``n``
    processes cost ``2n``. An empty fan-out is born done and schedules
    nothing.
    """

    def __init__(self, env: "BaseRuntime",
                 generators: Iterable[ProcessGenerator]) -> None:
        super().__init__(env)
        self._members = [_Member(self, index, generator)
                         for index, generator in enumerate(generators)]
        self._results: List[Any] = [None] * len(self._members)
        self._running = len(self._members)
        if not self._members:
            self._ok, self._value, self._processed = True, [], True
            return
        _schedule_start(env, self._start)

    def _start(self, event: Event) -> None:
        members, self._members = self._members, []
        for member in members:
            member._resume(event)

    def _member_ended(self, index: int, result: Any) -> None:
        self._results[index] = result
        self._running -= 1
        if not self._running:
            self._trigger(True, self._results, 0.0)
