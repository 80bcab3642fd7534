"""Runtime-time span tracing over the engine tracer.

A span measures one named stretch of *runtime* time — a dispatch batch,
a probe exchange, an action execution — read from the engine's runtime
clock (``runtime.now``): virtual seconds, which a positive
``time_scale`` paces against the wall clock. Each
span carries labels, a deterministic id, and a parent link to the
innermost span open when it started. Spans
ride on :class:`~repro.core.tracing.EngineTracer`: closing a span emits
one ordinary ``"span"`` trace record, so every existing trace consumer
(filters, tails, the golden harness) sees spans with no new plumbing.

Because the clock is virtual and ids come from a per-engine counter,
span trees are bit-reproducible across runs — which is what lets the
golden-trace harness diff them.

The whole layer sits behind :class:`Observability`, the single object
the engine threads through its components. Counters are not behind
its switch: they are engine state, always recorded. Disabled (the
default), spans and timings are no-ops — no records, no RNG, no
virtual-time effects — so the off path's trace is byte-identical to an
uninstrumented engine's.

Parenting has two modes. A span opened plainly is *nested*: its parent
is the innermost open nested span and it joins that stack — right for
sequential structure (engine run, dispatch batch, scheduling). A span
opened with an explicit ``parent=`` is *detached*: it records the given
parent but never joins the stack — right for concurrent work (probes,
per-device executions) where dynamic nesting would misparent
interleaved siblings under one another.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.errors import AortaError
from repro.obs.metrics import Histogram, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.sim import Environment

#: Trace-record field names a span emits; label keys must not collide.
RESERVED_SPAN_FIELDS = frozenset({"span", "parent", "name", "start"})


class _NullSpan:
    """The shared no-op context manager of a disabled Observability."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Inert:
    """A timing or level series with observability off: writes are
    no-ops."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        return None

    def set(self, value: float) -> None:
        return None


_INERT = _Inert()


class SpanContext:
    """One open span; closes (and records) on context-manager exit."""

    __slots__ = ("_obs", "span_id", "name", "labels", "started_at",
                 "parent_id", "_nested")

    def __init__(self, obs: "Observability", span_id: int, name: str,
                 labels: Dict[str, str], parent_id: int,
                 nested: bool) -> None:
        self._obs = obs
        self.span_id = span_id
        self.name = name
        self.labels = labels
        self.parent_id = parent_id
        self._nested = nested
        self.started_at = obs.env.now

    def __enter__(self) -> "SpanContext":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._obs._close_span(self)


class Observability:
    """One engine's sink: its metric registry and trace log, plus
    timings and spans behind one enable switch.

    The engine creates one instance and hands it to every component it
    builds; every component takes it as a required argument, so one
    engine's counts and records have one home. At construction a
    component resolves what it writes: counters from :attr:`registry`
    (always recorded), timings and levels from :meth:`family` (inert
    unless ``enabled``), trace records through :attr:`tracer`. Call
    sites then write unconditionally; :meth:`span` returns a shared
    no-op when disabled.
    """

    def __init__(self, env: "Environment", *, enabled: bool = False) -> None:
        # Deferred: repro.core imports this module.
        from repro.core.tracing import EngineTracer
        self.env = env
        #: The engine's trace log (``AortaEngine.tracer``).
        self.tracer = EngineTracer()
        self.registry = MetricsRegistry()
        self.enabled = enabled
        self._span_seconds = self.family(Histogram, "span.seconds", "name")
        #: Innermost-last stack of open spans (dynamic nesting).
        self._open: List[SpanContext] = []
        self._next_span_id = 1

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, name: str, *,
             parent: Optional["SpanContext"] = None,
             detached: bool = False, **labels: Any):
        """Open a span; use as ``with obs.span("dispatch.batch", ...):``.

        ``parent=`` pins the parent explicitly and keeps the span off
        the nesting stack; ``detached=True`` takes the parent from the
        stack but also stays off it. Both exist for spans whose
        lifetime interleaves with concurrent processes (see module
        docstring); plain calls nest.
        """
        if not self.enabled:
            return _NULL_SPAN
        rendered = {str(k): str(v) for k, v in labels.items()}
        collisions = RESERVED_SPAN_FIELDS.intersection(rendered)
        if collisions:
            raise AortaError(
                f"span label(s) {sorted(collisions)} collide with "
                f"reserved span fields")
        span_id = self._next_span_id
        self._next_span_id += 1
        if isinstance(parent, SpanContext):
            parent_id = parent.span_id
            nested = False
        else:
            parent_id = self._open[-1].span_id if self._open else 0
            nested = not detached
        context = SpanContext(self, span_id, name, rendered, parent_id,
                              nested)
        if nested:
            self._open.append(context)
        return context

    def _close_span(self, context: SpanContext) -> None:
        if context._nested:
            # Remove by identity: interleaved sim processes may close
            # spans out of stack order.
            for index in range(len(self._open) - 1, -1, -1):
                if self._open[index] is context:
                    del self._open[index]
                    break
        now = self.env.now
        self.tracer.record(
            now, "span", span=context.span_id, parent=context.parent_id,
            name=context.name, start=context.started_at, **context.labels)
        self._span_seconds[context.name].observe(now - context.started_at)

    # ------------------------------------------------------------------
    # Timings and levels (recorded only when enabled)
    # ------------------------------------------------------------------
    def family(self, kind: Any, name: str, *labels: str) -> Dict[Any, Any]:
        """:meth:`MetricsRegistry.family` when enabled; otherwise a
        family whose every series is inert."""
        if self.enabled:
            return self.registry.family(kind, name, *labels)
        return defaultdict(lambda: _INERT)
