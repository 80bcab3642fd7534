"""Discrete-event simulation core: the one runtime class.

The kernel is what the engine uses and no more:
:class:`~repro.sim.base.Environment` holds a float clock and a ``heapq``
of ``(time, priority, seq, event)`` tuples, and fires one-shot events
that generator-based processes, fan-outs, timer callbacks and a FIFO
lock wait on. Events only succeed. A :class:`Process` is a loop the
kernel drives until it returns; it is not an event, so nothing waits
on it, and an exception it does not catch propagates out of ``step()``
and ``run()`` at once. A one-shot wait is not a process but a
:class:`Timeout` with a callback. The one join is a :class:`FanOut`:
several generators started at one instant, awaited as one event that
triggers with all their results (a member's exception is its result;
:func:`raise_first_error` raises the first).

Time is virtual: the clock jumps from event to event, so experiments
measuring seconds of device time execute in milliseconds of wall time.
``Environment(time_scale=S)`` with ``S > 0`` paces the same timeline
against ``time.monotonic`` at ``S`` wall seconds per runtime second;
pacing never reorders events. The wall is the class attribute
``Environment._wall`` (the ``time`` module): the one seam, which the
subclass in ``tests/sim/fake_wall.py`` replaces with a fake clock.

Public surface::

    env = Environment()
    def proc(env):
        yield env.timeout(1.5)
    env.process(proc(env))
    env.run()

    def both(env):  # resumes at t=1.5 with [None, None]
        results = yield env.fan_out([proc(env), proc(env)])

    # A one-shot wait: a timer with a callback, not a process.
    env.timeout(2.0).callbacks.append(lambda _event: print(env.now))
"""

from repro.sim.base import Environment
from repro.sim.events import Event, Timeout
from repro.sim.process import FanOut, Process, raise_first_error
from repro.sim.resources import SimLock

__all__ = [
    "Environment",
    "Event",
    "FanOut",
    "Process",
    "SimLock",
    "Timeout",
    "raise_first_error",
]
