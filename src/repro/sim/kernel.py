"""The virtual-time backend: the classic discrete-event environment.

All machinery — event queue, process scheduling, quiescence, run
budgets — lives in :class:`~repro.sim.base.BaseRuntime`; this backend
merely declines to pace, so the clock jumps instantly from event to
event and experiments measuring seconds of device time execute in
milliseconds of wall time. It is the default backend and the reference
the realtime backend is equivalence-tested against.
"""

from __future__ import annotations

from repro.sim.base import BaseRuntime


class Environment(BaseRuntime):
    """Coordinates virtual time and runs processes until quiescence.

    One :class:`Environment` underlies one experiment: all simulated
    devices, network links and engine loops share it, so their relative
    timing is globally consistent.
    """

    backend_name = "virtual"
