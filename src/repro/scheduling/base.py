"""Scheduler interface and schedule representation."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.errors import SchedulingError
from repro.scheduling.cost_cache import CachingCostModel
from repro.scheduling.problem import Problem

#: The paper's SAP/CAP taxonomy (Section 5.2): Sequential vs Concurrent
#: Assignment and Processing.
CATEGORY_SAP = "SAP"
CATEGORY_CAP = "CAP"


@dataclass
class Schedule:
    """A scheduler's output: ordered per-device request queues.

    ``assignments[device_id]`` is the sequence in which that device
    services its requests. ``scheduling_seconds`` is the measured
    wall-clock computation time of the algorithm — it is part of the
    paper's makespan ("the makespan values ... included both the
    computational cost of the scheduling algorithm ... and the time
    spent on servicing the requests", Section 6.3).
    """

    algorithm: str
    assignments: Dict[str, List[str]]
    scheduling_seconds: float = 0.0

    @property
    def scheduled_request_ids(self) -> List[str]:
        """All scheduled request ids, device by device."""
        return [request_id for queue in self.assignments.values()
                for request_id in queue]

    def validate(self, problem: Problem) -> None:
        """Check the schedule is a feasible solution of ``problem``.

        Every request appears exactly once, on one of its candidate
        devices; no foreign requests or devices appear.
        """
        unknown_devices = set(self.assignments) - set(problem.device_ids)
        if unknown_devices:
            raise SchedulingError(
                f"schedule uses unknown devices: {sorted(unknown_devices)}"
            )
        seen: set[str] = set()
        for device_id, queue in self.assignments.items():
            for request_id in queue:
                if request_id in seen:
                    raise SchedulingError(
                        f"request {request_id!r} is scheduled twice"
                    )
                seen.add(request_id)
                request = problem.request(request_id)
                if device_id not in request.candidates:
                    raise SchedulingError(
                        f"request {request_id!r} assigned to non-candidate "
                        f"device {device_id!r}"
                    )
        missing = {r.request_id for r in problem.requests} - seen
        if missing:
            raise SchedulingError(
                f"requests left unscheduled: {sorted(missing)}"
            )


class Scheduler:
    """Base class of all scheduling algorithms.

    Subclasses implement :meth:`_solve`; :meth:`schedule` wraps it with
    wall-clock timing and feasibility validation. Schedulers that use
    randomness draw from ``self.rng`` so runs are reproducible.

    An algorithm that revisits ``(request, device, status)`` triples by
    construction sets ``memoizes``; its estimates then go through a
    per-``schedule`` :class:`CachingCostModel` whenever the problem's
    cost model is deterministic and declares ``cache_by_default``.
    ``last_cache_stats`` holds that memo's hit/miss counters after a
    run, and is ``None`` when the run had no memo.

    An algorithm with a numpy column-kernel path takes it whenever
    :func:`~repro.scheduling.vector_cost.build_kernel` offers a kernel
    for the problem, and is byte-identical to its scalar walk.
    """

    #: Short display name, as used in the paper's figures.
    name: str = "scheduler"
    #: SAP or CAP (Section 5.2 taxonomy).
    category: str = CATEGORY_SAP
    #: Whether the algorithm asks for the same estimate again often
    #: enough for a memo to pay. Measured (DESIGN.md decision 6): only
    #: SA's suffix re-walks do; the greedy algorithms hit 0-2.4 % and
    #: run up to 1.5x slower behind one.
    memoizes: bool = False

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.last_cache_stats: Optional[Dict[str, float]] = None

    def _solve(self, problem: Problem) -> Dict[str, List[str]]:
        """Produce per-device ordered request queues."""
        raise NotImplementedError

    def _cached_problem(self, problem: Problem) -> Problem:
        """``problem`` with its cost model behind a fresh memo, when this
        algorithm memoizes and the model opts in; else unchanged.

        A model the caller already wrapped does not opt in (the wrapper
        leaves ``cache_by_default`` off), so it is never wrapped twice.
        """
        cost_model = problem.cost_model
        if (self.memoizes and cost_model.cache_by_default
                and cost_model.deterministic):
            return replace(problem,
                           cost_model=CachingCostModel(cost_model))
        return problem

    def schedule(self, problem: Problem) -> Schedule:
        """Solve ``problem``, returning a validated, timed schedule."""
        problem = self._cached_problem(problem)
        started = time.perf_counter()
        assignments = self._solve(problem)
        elapsed = time.perf_counter() - started
        cost_model = problem.cost_model
        self.last_cache_stats = (cost_model.stats()
                                 if isinstance(cost_model, CachingCostModel)
                                 else None)
        # Normalize: every device has a (possibly empty) queue.
        for device_id in problem.device_ids:
            assignments.setdefault(device_id, [])
        result = Schedule(
            algorithm=self.name,
            assignments=assignments,
            scheduling_seconds=elapsed,
        )
        result.validate(problem)
        return result
