"""LS: the classic List Scheduling greedy (CAP baseline).

"Whenever a machine becomes idle, the LS algorithm schedules any
eligible job that has not yet been scheduled on the machine."
(Section 5.2, after Pinedo.) We simulate machine idle times directly:
devices pull the first still-unscheduled eligible request (list order)
the moment they free up; the earliest-free device is served first.
"""

from __future__ import annotations

import heapq
from typing import Dict, List

from repro.scheduling.base import CATEGORY_CAP, Scheduler
from repro.scheduling.problem import Problem


class ListScheduler(Scheduler):
    """List Scheduling: idle machine takes any eligible unscheduled job."""

    name = "LS"
    category = CATEGORY_CAP

    def _solve(self, problem: Problem) -> Dict[str, List[str]]:
        statuses = problem.initial_statuses()
        assignments: Dict[str, List[str]] = {
            device_id: [] for device_id in problem.device_ids}
        remaining = list(problem.requests)
        # (free_time, tiebreak index, device): every device starts idle.
        idle_heap = [(0.0, index, device_id)
                     for index, device_id in enumerate(problem.device_ids)]
        heapq.heapify(idle_heap)

        while remaining and idle_heap:
            free_time, index, device_id = heapq.heappop(idle_heap)
            eligible_index = next(
                (i for i, request in enumerate(remaining)
                 if device_id in request.candidates), None)
            if eligible_index is None:
                # Nothing this device may ever service remains: retire
                # it. (Requests only shrink, so this is final.)
                continue
            request = remaining.pop(eligible_index)
            seconds, post_status = problem.cost_model.actual(
                request, device_id, statuses[device_id])
            statuses[device_id] = post_status
            assignments[device_id].append(request.request_id)
            heapq.heappush(idle_heap,
                           (free_time + seconds, index, device_id))
        return assignments
