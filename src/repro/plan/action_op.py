"""The shared action operator.

"We make concurrent queries that have the same embedded action ...
share a single action operator in their query plans. We add the query
ID to the input tuples of a query so that the operator knows which
tuples are for which query. Such action operator sharing saves system
resources and facilitates group optimization of actions." (Section 2.3)

Group optimization happens downstream: the dispatcher drains a shared
operator's pending requests as one batch and schedules them together —
this is precisely the "multiple action requests ... appear in the
optimizer at the same time or within a short time interval" scenario
the scheduling algorithms of Section 5 exist for.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set, Tuple

from repro.errors import QueueFullError, RegistrationError, SchedulingError
from repro.actions.action import ActionDefinition
from repro.actions.request import REASON_EVICTED, ActionRequest


def _eviction_key(request: ActionRequest,
                  index: int) -> Tuple[int, float, float, int]:
    """Sort key whose minimum is the least-worth-keeping pending entry:
    :meth:`~repro.actions.request.ActionRequest.worth`, then queue
    position."""
    return (*request.worth(), index)


class SharedActionOperator:
    """One action operator shared by every query embedding the action."""

    def __init__(self, action: ActionDefinition) -> None:
        self.action = action
        self._attached_queries: Set[str] = set()
        self._pending: List[ActionRequest] = []
        #: Called on every submit, so the dispatcher can wake up.
        self.on_submit: Optional[Callable[[ActionRequest], None]] = None
        #: Bounded-queue limit; ``None`` (the default) keeps the queue
        #: unbounded, the pre-overload behaviour. Set by the overload
        #: control plane (repro.overload) when it is configured.
        self.limit: Optional[int] = None
        #: Called with ``(victim, reason)`` when a full queue evicts a
        #: pending request to make room for a more valuable one.
        self.on_evict: Optional[Callable[[ActionRequest, str], None]] = None
        #: High-water mark of the pending queue, for overload metrics.
        self.peak_pending = 0

    # ------------------------------------------------------------------
    # Query attachment
    # ------------------------------------------------------------------
    def attach(self, query_id: str) -> None:
        """A query embedding this action starts sharing the operator."""
        if query_id in self._attached_queries:
            raise RegistrationError(
                f"query {query_id!r} already attached to action "
                f"{self.action.name!r}"
            )
        self._attached_queries.add(query_id)

    def detach(self, query_id: str) -> List[ActionRequest]:
        """A dropped query stops sharing. Its pending requests leave the
        queue and are returned: whoever detaches must end them."""
        self._attached_queries.discard(query_id)
        orphaned = [r for r in self._pending if r.query_id == query_id]
        self._pending = [r for r in self._pending if r.query_id != query_id]
        return orphaned

    @property
    def shared(self) -> bool:
        """Whether more than one query currently shares this operator."""
        return len(self._attached_queries) > 1

    # ------------------------------------------------------------------
    # Request flow
    # ------------------------------------------------------------------
    def submit(self, request: ActionRequest) -> None:
        """A query hands over one instantiated action request.

        With a bounded queue (``limit`` set), submitting to a full
        operator picks the least-worth-keeping entry among the pending
        requests *and* the incoming one: if a pending entry loses, it
        is evicted (``on_evict`` fires) and the incoming request takes
        its place; if the incoming request itself is the least valuable,
        it is refused with :class:`QueueFullError` — explicit
        backpressure instead of silent unbounded growth.
        """
        if request.action_name != self.action.name:
            raise SchedulingError(
                f"request for {request.action_name!r} submitted to the "
                f"{self.action.name!r} operator"
            )
        if request.query_id and request.query_id not in self._attached_queries:
            raise SchedulingError(
                f"query {request.query_id!r} is not attached to action "
                f"{self.action.name!r}"
            )
        if self.limit is not None and len(self._pending) >= self.limit:
            victim_index = min(
                range(len(self._pending) + 1),
                key=lambda i: _eviction_key(
                    self._pending[i] if i < len(self._pending) else request,
                    i))
            if victim_index == len(self._pending):
                raise QueueFullError(
                    f"operator {self.action.name!r} queue is full "
                    f"({self.limit} pending) and request "
                    f"{request.request_id!r} (tier {request.priority}) "
                    f"is the least valuable; retry later"
                )
            victim = self._pending.pop(victim_index)
            if self.on_evict is not None:
                self.on_evict(victim, REASON_EVICTED)
        self._pending.append(request)
        self.peak_pending = max(self.peak_pending, len(self._pending))
        if self.on_submit is not None:
            self.on_submit(request)

    def drain(self) -> List[ActionRequest]:
        """Take all pending requests (the optimizer's batch)."""
        batch, self._pending = self._pending, []
        return batch

    def pending_snapshot(self) -> List[ActionRequest]:
        """A copy of the pending queue, in submission order."""
        return list(self._pending)

    def discard(self, request: ActionRequest) -> bool:
        """Remove one pending request (the load-shedder's primitive).

        Returns False when the request is no longer pending (drained or
        already removed), so shedding races resolve harmlessly.
        """
        try:
            self._pending.remove(request)
        except ValueError:
            return False
        return True

    @property
    def pending_count(self) -> int:
        return len(self._pending)
