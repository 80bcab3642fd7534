"""Kernel-based execution of schedules, for cross-validation.

:mod:`repro.scheduling.metrics` replays a schedule arithmetically. This
executor runs the same schedule as one fan-out of device queues on the
discrete-event kernel, with per-device locks — the execution style the
engine's dispatcher uses. Both paths must agree on the makespan, which
is asserted by property tests (and is a strong check on both the kernel
and the replay logic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List

from repro.errors import SchedulingError
from repro.obs.spans import Observability
from repro.scheduling.base import Schedule
from repro.scheduling.problem import Problem
from repro.sim import Environment, raise_first_error
from repro.sync.locks import DeviceLockManager, LockToken


@dataclass
class ExecutionResult:
    """Timing record of one simulated schedule execution."""

    makespan: float
    completion_times: Dict[str, float] = field(default_factory=dict)
    device_busy: Dict[str, float] = field(default_factory=dict)


def execute_schedule(problem: Problem, schedule: Schedule) -> ExecutionResult:
    """Run a schedule on a fresh runtime at actual costs; returns
    measured timings."""
    schedule.validate(problem)
    env = Environment()
    locks = DeviceLockManager(env, obs=Observability(env))
    cost = problem.cost_model.actual
    result = ExecutionResult(makespan=0.0)

    def device_queue(device_id: str, queue: List[str]) -> Generator:
        status = problem.cost_model.initial_status(device_id)
        busy = 0.0
        for request_id in queue:
            token = LockToken(request_id)
            yield from locks.acquire(device_id, token)
            try:
                seconds, status = cost(problem.request(request_id),
                                       device_id, status)
                yield env.timeout(seconds)
                busy += seconds
                result.completion_times[request_id] = env.now
            finally:
                locks.release(device_id, token)
        result.device_busy[device_id] = busy

    done = env.fan_out(device_queue(device_id, list(queue))
                       for device_id, queue in schedule.assignments.items())
    env.run()
    raise_first_error(done.value)
    scheduled = set(schedule.scheduled_request_ids)
    missing = scheduled - set(result.completion_times)
    if missing:  # pragma: no cover - defensive
        raise SchedulingError(f"execution lost requests: {sorted(missing)}")
    result.makespan = max(result.completion_times.values(), default=0.0)
    return result
