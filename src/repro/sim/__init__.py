"""Discrete-event simulation core and its runtime backends.

The kernel is what the engine uses and no more:
:class:`~repro.sim.base.BaseRuntime` holds a float clock and a ``heapq``
of ``(time, priority, seq, event)`` tuples, and fires one-shot events
that generator-based processes and a FIFO lock wait on. Two
interchangeable backends decide how time passes:

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
"""

from repro.sim.base import BaseRuntime
from repro.sim.events import Event, Timeout
from repro.sim.kernel import Environment
from repro.sim.process import Process
from repro.sim.realtime import RealtimeRuntime
from repro.sim.resources import SimLock

__all__ = [
    "BaseRuntime",
    "Environment",
    "Event",
    "Process",
    "RealtimeRuntime",
    "SimLock",
    "Timeout",
]
