"""Priority load-shedding with deadlines and hysteresis.

A periodic shedder process sweeps the shared operators' pending
queues. Every pass first sheds requests whose service deadline has
already expired (a late answer has no value, whatever the tier), then
applies pressure shedding with hysteresis: when total pending work
rises above the high watermark, the worst requests — lowest tier
first, then earliest deadline, then oldest — are dropped until the
backlog falls to the low watermark. The two distinct watermarks make
the start and stop of shedding deterministic edges instead of
per-request flapping around a single threshold.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Sequence, Tuple

from repro.actions.request import (
    REASON_DEADLINE,
    REASON_PRESSURE,
    ActionRequest,
)
from repro.obs.spans import Observability
from repro.plan.action_op import SharedActionOperator
from repro.sim import Environment

#: Virtual seconds between shedder passes (deadline expiry +
#: hysteresis).
SHED_INTERVAL = 0.5
#: Tiers at or above this value are never pressure-shed (deadline
#: expiry still sheds them — a late answer has no value).
SHED_PROTECT_TIER = 3


def _shed_key(
    entry: Tuple[int, int, ActionRequest],
) -> Tuple[int, float, float, int, int]:
    """Worst-first order over (operator index, queue index, request)."""
    op_index, queue_index, request = entry
    return (*request.worth(), op_index, queue_index)


class LoadShedder:
    """The shedder process and its deterministic shedding passes."""

    def __init__(
        self,
        env: Environment,
        policy: Any,
        operators: Callable[[], Sequence[SharedActionOperator]],
        shed: Callable[[ActionRequest, str], None],
        obs: Observability,
    ) -> None:
        self.env = env
        self.policy = policy
        self._operators = operators
        self._shed = shed
        self.obs = obs
        #: Hysteresis state: True between the start and stop edges.
        self.active = False
        self.shed_passes = 0
        self._started = False

    def start(self) -> None:
        """Launch the periodic shedder as a simulation process."""
        if self._started:
            return
        self._started = True
        self.env.process(self._run())

    def _run(self) -> Generator[Any, Any, None]:
        while True:
            yield self.env.timeout(SHED_INTERVAL)
            self.pass_once()

    # ------------------------------------------------------------------
    # One pass: deadline sweep, then hysteresis pressure shedding
    # ------------------------------------------------------------------
    def pass_once(self) -> int:
        """Run one shedding pass; returns the number of requests shed."""
        self.shed_passes += 1
        now = self.env.now
        shed = 0
        operators = list(self._operators())
        for operator in operators:
            for request in operator.pending_snapshot():
                if request.deadline_expired(now) and \
                        operator.discard(request):
                    self._shed(request, REASON_DEADLINE)
                    shed += 1

        pending = sum(op.pending_count for op in operators)
        if not self.active and pending > self.policy.shed_high_watermark:
            self.active = True
            self.obs.tracer.record(
                now, "shedding_started", pending=pending,
                watermark=self.policy.shed_high_watermark)
        if self.active:
            shed += self._shed_to_low_watermark(operators, pending)
            remaining = sum(op.pending_count for op in operators)
            if remaining <= self.policy.shed_low_watermark:
                self.active = False
                self.obs.tracer.record(
                    self.env.now, "shedding_stopped", pending=remaining,
                    watermark=self.policy.shed_low_watermark)
        return shed

    def _shed_to_low_watermark(
        self, operators: List[SharedActionOperator], pending: int,
    ) -> int:
        """Drop worst-first until the backlog reaches the low watermark.

        Tiers at or above ``SHED_PROTECT_TIER`` are exempt — pressure
        shedding may leave the backlog above the watermark when only
        protected work remains, in which case shedding stays active.
        """
        excess = pending - self.policy.shed_low_watermark
        if excess <= 0:
            return 0
        sheddable = [
            (op_index, queue_index, request)
            for op_index, operator in enumerate(operators)
            for queue_index, request in enumerate(
                operator.pending_snapshot())
            if request.priority < SHED_PROTECT_TIER]
        sheddable.sort(key=_shed_key)
        shed = 0
        for op_index, _, request in sheddable[:excess]:
            if operators[op_index].discard(request):
                self._shed(request, REASON_PRESSURE)
                shed += 1
        return shed
