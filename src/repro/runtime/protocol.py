"""The Runtime protocol: what components may ask of a backend.

The surface is deliberately small — a clock, timers, events that only
succeed, process spawning with one join (the fan-out), and quiescence —
because everything a pervasive query engine does reduces
to those five capabilities. Any object structurally providing them can
host the engine; nothing outside :mod:`repro.sim` may assume a concrete
backend class.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Protocol, runtime_checkable

from repro.sim.events import PRIORITY_NORMAL, Event, Timeout
from repro.sim.process import FanOut, Process, ProcessGenerator


@runtime_checkable
class Runtime(Protocol):
    """Structural interface of a runtime backend.

    Both backends inherit the one implementation of this surface from
    :class:`~repro.sim.base.BaseRuntime`; the protocol exists so
    components *type* against the capability, not the class — which is
    what lets future backends (asyncio serving, live device buses)
    slot in without touching them.
    """

    #: Human-readable backend identifier ("virtual", "realtime", ...).
    backend_name: str

    @property
    def now(self) -> float:
        """Current runtime time in seconds."""
        ...

    def event(self) -> Event:
        """A fresh, untriggered event to wait on or trigger."""
        ...

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` runtime seconds from now."""
        ...

    def process(self, generator: ProcessGenerator) -> Process:
        """Spawn ``generator`` as a concurrent process.

        A process is not an event: nothing waits on it, and an exception
        it does not catch propagates out of :meth:`step` and :meth:`run`.
        """
        ...

    def fan_out(self, generators: Iterable[ProcessGenerator]) -> FanOut:
        """Start ``generators`` together; one event awaits all of them.

        The one join: it triggers with every member's result, a raised
        exception included, in input order.
        """
        ...

    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = PRIORITY_NORMAL
    ) -> None:
        """Enqueue a triggered event's callbacks to run after ``delay``."""
        ...

    def step(self) -> None:
        """Process the single next pending event."""
        ...

    def run(
        self,
        until: Optional[float] = None,
        *,
        max_events: Optional[int] = None,
    ) -> float:
        """Run to quiescence, a deadline, or an event budget."""
        ...

    @property
    def pending_events(self) -> int:
        """Number of events still waiting in the queue."""
        ...

    @property
    def events_processed(self) -> int:
        """Total events processed over this runtime's lifetime."""
        ...
