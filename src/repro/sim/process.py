"""Generator-based simulation processes and fan-outs of them."""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Generator, Iterable, List,
                    Tuple, Type)

from repro.errors import SimulationError
from repro.sim.events import PRIORITY_URGENT, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.base import Environment

ProcessGenerator = Generator[Event, Any, Any]


def _schedule_start(env: "Environment",
                    resume: Callable[[Event], None]) -> None:
    """Schedule ``resume`` at the current time, ahead of normal events."""
    start = Event(env)
    start.callbacks.append(resume)
    start._value = None
    env.schedule(start, priority=PRIORITY_URGENT)


def raise_first_error(results: List[Any]) -> List[Any]:
    """A triggered fan-out's results, unless a member raised: then the
    first member's exception, raised once every member has ended."""
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


class _Driver:
    """Resumes a generator from the callbacks of the events it yields.

    What the generator's end means is the subclass's :meth:`_end`.
    """

    env: "Environment"
    #: Exceptions that end the generator like a return, handed to
    #: :meth:`_end`; any other propagates out of the kernel's ``step``.
    _handed_back: Tuple[Type[BaseException], ...] = ()

    def __init__(self, generator: ProcessGenerator) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                "a process requires a generator; did you call the function?"
            )
        self._generator = generator

    def _end(self, value: Any) -> None:
        raise NotImplementedError

    def _resume(self, event: Event) -> None:
        try:
            target = self._generator.send(event._value)
        except StopIteration as stop:
            self._end(stop.value)
            return
        except self._handed_back as exc:
            self._end(exc)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {target!r}; processes must yield Event objects"
            )
        if target._processed:
            # Already done: schedule an immediate resume preserving order.
            immediate = Event(self.env)
            immediate.callbacks.append(self._resume)
            immediate._value = target._value
            self.env.schedule(immediate, priority=PRIORITY_URGENT)
        else:
            target.callbacks.append(self._resume)


class Process(_Driver):
    """Runs a generator as a concurrent simulation process.

    The kernel drives the generator until it returns and drops its
    return value; nothing waits on a process (a :class:`FanOut` is the
    one join). An exception the generator does not catch propagates out
    of ``step()`` and ``run()`` at the instant it is raised.
    """

    def __init__(self, env: "Environment",
                 generator: ProcessGenerator) -> None:
        super().__init__(generator)
        self.env = env
        _schedule_start(env, self._resume)

    def _end(self, value: Any) -> None:
        """The generator returned: the process is over."""


class _Member(_Driver):
    """One generator of a :class:`FanOut`: no event of its own."""

    _handed_back = (Exception,)

    def __init__(self, fan_out: "FanOut", index: int,
                 generator: ProcessGenerator) -> None:
        super().__init__(generator)
        self.env = fan_out.env
        self._fan_out = fan_out
        self._index = index

    def _end(self, value: Any) -> None:
        self._fan_out._member_ended(self._index, value)


class FanOut(Event):
    """Generators started together, awaited as one event.

    All members start at one urgent start event, in input order — the
    instant and order ``n`` processes created in a row would start at —
    and each is then resumed straight from the callbacks of the events
    it yields. The fan-out triggers once, when the last member ends,
    with every member's result in input order; a member that raised
    contributes its exception, which the kernel never raises: the
    caller decides at the ``yield`` what it means. The completion is
    scheduled when the last member ends, so the members cost the kernel
    two events beyond their own. An empty fan-out is born done and
    schedules nothing.
    """

    def __init__(self, env: "Environment",
                 generators: Iterable[ProcessGenerator]) -> None:
        super().__init__(env)
        self._members = [_Member(self, index, generator)
                         for index, generator in enumerate(generators)]
        self._results: List[Any] = [None] * len(self._members)
        self._running = len(self._members)
        if not self._members:
            self._value, self._processed = [], True
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
            self.succeed(self._results)
