"""The pluggable runtime layer.

Every component of the engine — communication, transport, locks,
devices, dispatcher, continuous executor, observability — programs
against the small :class:`Runtime` protocol defined here instead of a
concrete backend. Two backends satisfy it today:

* ``"virtual"`` — :class:`~repro.sim.kernel.Environment`, the
  discrete-event kernel on a virtual clock (default; experiments run
  as fast as the host allows);
* ``"realtime"`` — :class:`~repro.sim.realtime.RealtimeRuntime`, the
  same engine core paced against the wall clock with a configurable
  ``time_scale`` (``0`` ⇒ fire timers immediately; ``1.0`` ⇒ real
  seconds).

Pick one by name through :func:`create_runtime`, or via
``EngineConfig(runtime="realtime", time_scale=...)``.
"""

from __future__ import annotations

from typing import Any

from repro.errors import SimulationError
from repro.runtime.fleet import (
    RoundBudgetError,
    RoundPeer,
    RoundResult,
    RuntimePeer,
    run_lockstep,
)
from repro.runtime.protocol import Runtime
from repro.sim import Environment, RealtimeRuntime

#: Backend alias: the virtual-time environment *is* a runtime.
VirtualRuntime = Environment

#: Backend names accepted by :func:`create_runtime` and
#: ``EngineConfig.runtime``.
RUNTIME_NAMES = ("virtual", "realtime")


def create_runtime(
    name: str = "virtual",
    *,
    start: float = 0.0,
    time_scale: float = 1.0,
    **options: Any,
) -> Runtime:
    """Build a runtime backend by name.

    ``time_scale`` (and any extra keyword ``options``, e.g. ``strict``)
    only apply to the realtime backend; the virtual backend accepts and
    ignores them so callers can switch backends with one string.
    """
    if name == "virtual":
        return Environment(start)
    if name == "realtime":
        return RealtimeRuntime(start, time_scale=time_scale, **options)
    raise SimulationError(
        f"unknown runtime backend {name!r}; expected one of {RUNTIME_NAMES}")


__all__ = [
    "RUNTIME_NAMES",
    "RealtimeRuntime",
    "Runtime",
    "VirtualRuntime",
    "create_runtime",
    "RoundBudgetError",
    "RoundPeer",
    "RoundResult",
    "RuntimePeer",
    "run_lockstep",
]
