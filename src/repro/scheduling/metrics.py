"""Makespan accounting: service time, scheduling time, completion times.

"The completion time is defined as the interval between the time when
these requests appear in the shared action operator and the time when
all of them have been serviced." (Section 5.1) Service times are
replayed through the cost model with status chaining, so sequence-
dependent costs are honoured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.scheduling.base import Schedule
from repro.scheduling.problem import Problem


def device_completion_times(
    problem: Problem, schedule: Schedule
) -> Dict[str, float]:
    """Seconds each device spends servicing its queue, status-chained,
    at actual costs."""
    cost = problem.cost_model.actual
    completions: Dict[str, float] = {}
    for device_id in problem.device_ids:
        status = problem.cost_model.initial_status(device_id)
        elapsed = 0.0
        for request_id in schedule.assignments.get(device_id, []):
            seconds, status = cost(problem.request(request_id),
                                   device_id, status)
            elapsed += seconds
        completions[device_id] = elapsed
    return completions


def service_makespan(problem: Problem, schedule: Schedule) -> float:
    """The service-time component of the makespan, at actual costs."""
    completions = device_completion_times(problem, schedule)
    return max(completions.values(), default=0.0)


def total_makespan(problem: Problem, schedule: Schedule) -> float:
    """Scheduling computation plus service time — the paper's makespan."""
    return schedule.scheduling_seconds + service_makespan(problem, schedule)


@dataclass(frozen=True)
class MakespanBreakdown:
    """The Figure 5 decomposition of one schedule's makespan."""

    algorithm: str
    scheduling_seconds: float
    service_seconds: float


def breakdown(problem: Problem, schedule: Schedule) -> MakespanBreakdown:
    """Makespan broken into scheduling vs service time (Figure 5)."""
    return MakespanBreakdown(
        algorithm=schedule.algorithm,
        scheduling_seconds=schedule.scheduling_seconds,
        service_seconds=service_makespan(problem, schedule),
    )


def workload_balance(problem: Problem, schedule: Schedule) -> float:
    """Coefficient of variation of per-device completion times.

    The paper's scheduling objective exists "to balance the action
    workload on all available devices and improve device utilization"
    (Section 5.1); this measures how balanced a schedule actually is —
    0 is perfectly even, larger is lumpier.
    """
    completions = list(device_completion_times(problem, schedule).values())
    if not completions:
        return 0.0
    mean = sum(completions) / len(completions)
    if mean == 0:
        return 0.0
    variance = sum((c - mean) ** 2 for c in completions) / len(completions)
    return (variance ** 0.5) / mean


def device_utilization(problem: Problem, schedule: Schedule) -> Dict[str, float]:
    """Fraction of the service makespan each device spends busy."""
    completions = device_completion_times(problem, schedule)
    horizon = max(completions.values(), default=0.0)
    if horizon == 0:
        return {device_id: 0.0 for device_id in completions}
    return {device_id: busy / horizon
            for device_id, busy in completions.items()}
