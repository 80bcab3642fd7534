"""Discrete-event simulation core and its runtime backends.

The kernel is what the engine uses and no more:
:class:`~repro.sim.base.BaseRuntime` holds a float clock and a ``heapq``
of ``(time, priority, seq, event)`` tuples, and fires one-shot events
that generator-based processes, fan-outs, timer callbacks and a FIFO
lock wait on. Events only succeed. A :class:`Process` is a loop the
kernel drives until it returns; it is not an event, so nothing waits
on it, and an exception it does not catch propagates out of ``step()``
and ``run()`` at once. A one-shot wait is not a process but a
:class:`Timeout` with a callback. The one join is a :class:`FanOut`:
several generators started at one instant, awaited as one event that
triggers with all their results (a member's exception is its result;
:func:`raise_first_error` raises the first). Two interchangeable
backends decide how time passes:

* :class:`Environment` — virtual time (the default): the clock jumps
  from event to event, so experiments measuring seconds of device time
  execute in milliseconds of wall time.
* :class:`RealtimeRuntime` — wall-clock time: the same processes are
  paced against ``time.monotonic`` under a configurable ``time_scale``
  (``0`` ⇒ fire immediately, byte-identical to virtual).

Components should program against the :class:`~repro.runtime.Runtime`
protocol rather than either concrete backend.

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

from repro.sim.base import BaseRuntime
from repro.sim.events import Event, Timeout
from repro.sim.kernel import Environment
from repro.sim.process import FanOut, Process, raise_first_error
from repro.sim.realtime import RealtimeRuntime
from repro.sim.resources import SimLock

__all__ = [
    "BaseRuntime",
    "Environment",
    "Event",
    "FanOut",
    "Process",
    "RealtimeRuntime",
    "SimLock",
    "Timeout",
    "raise_first_error",
]
