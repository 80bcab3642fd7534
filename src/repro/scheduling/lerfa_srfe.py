"""Algorithm 1: LERFA + SRFE (SAP, proposed by the paper).

Two greedy sub-components (Figure 3, Algorithm 1):

* **LERFA** (Least Eligible Request First Assignment) assigns requests
  in increasing order of candidate-set size; each request goes to the
  candidate device whose projected total workload ``W_k + C_rk`` is
  least. Ties in eligibility are broken in random order, per the paper.
* **SRFE** (Shortest Request First Execution) orders each device's
  assigned requests by repeatedly servicing the request with the least
  estimated cost *given the device's current physical status*, updating
  the status after each servicing.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy

from repro.errors import SchedulingError
from repro.scheduling.base import CATEGORY_SAP, Scheduler
from repro.scheduling.problem import Problem, SchedRequest
from repro.scheduling.vector_cost import ColumnKernel, build_kernel


class LerfaSrfeScheduler(Scheduler):
    """The paper's Algorithm 1."""

    name = "LERFA+SRFE"
    category = CATEGORY_SAP

    def _solve(self, problem: Problem) -> Dict[str, List[str]]:
        kernel = build_kernel(problem)
        if kernel is not None:
            assigned = self._lerfa_assign_vectorized(problem, kernel)
            return {
                device_id: self._srfe_order_vectorized(
                    problem, kernel, device_id, requests)
                for device_id, requests in assigned.items()
            }
        assigned = self._lerfa_assign(problem)
        return {
            device_id: self._srfe_order(problem, device_id, requests)
            for device_id, requests in assigned.items()
        }

    # ------------------------------------------------------------------
    # Algorithm 1.1: Least Eligible Request First Assignment
    # ------------------------------------------------------------------
    def _lerfa_assign(
        self, problem: Problem
    ) -> Dict[str, List[SchedRequest]]:
        workloads = {device_id: 0.0 for device_id in problem.device_ids}
        statuses = problem.initial_statuses()
        assigned: Dict[str, List[SchedRequest]] = {
            device_id: [] for device_id in problem.device_ids}

        by_eligibility: Dict[int, List[SchedRequest]] = {}
        for request in problem.requests:
            by_eligibility.setdefault(len(request.candidates), []).append(
                request)

        for eligibility in sorted(by_eligibility):
            batch = by_eligibility[eligibility]
            # "If two requests have the same number of candidate
            # devices, LERFA assigns them in a random order."
            self.rng.shuffle(batch)
            for request in batch:
                best_device = None
                best_projected = float("inf")
                best_cost = 0.0
                for device_id in request.candidates:
                    cost, _ = problem.cost_model.estimate(
                        request, device_id, statuses[device_id])
                    projected = workloads[device_id] + cost
                    if projected < best_projected:
                        best_projected = projected
                        best_device = device_id
                        best_cost = cost
                if best_device is None:  # pragma: no cover - guarded upstream
                    raise SchedulingError(
                        f"request {request.request_id!r} has no candidates"
                    )
                workloads[best_device] += best_cost
                assigned[best_device].append(request)
        return assigned

    def _lerfa_assign_vectorized(
        self, problem: Problem, kernel: ColumnKernel
    ) -> Dict[str, List[SchedRequest]]:
        """LERFA over a precomputed (devices x requests) cost matrix.

        LERFA estimates every candidate from the device's *initial*
        status (assignment never advances statuses — that is SRFE's
        job), so the whole cost matrix can be evaluated up front; each
        request then scores its candidates with one gather + argmin.
        Batch ordering, the rng shuffle sequence, first-strict-minimum
        selection (numpy's first-occurrence argmin) and float64 workload
        accumulation all match the scalar walk bit for bit.
        """
        device_ids = problem.device_ids
        device_index = {device_id: k
                        for k, device_id in enumerate(device_ids)}
        request_index = {request.request_id: i
                         for i, request in enumerate(problem.requests)}
        statuses = problem.initial_statuses()
        matrix = kernel.matrix(device_ids, statuses)
        workloads = numpy.zeros(len(device_ids), dtype=numpy.float64)
        assigned: Dict[str, List[SchedRequest]] = {
            device_id: [] for device_id in device_ids}
        #: Candidate tuples are widely shared between requests (the
        #: uniform workload has a single one); index arrays are memoized
        #: by tuple identity, with the tuples pinned so no id is
        #: recycled while the memo lives.
        candidate_rows: Dict[int, Any] = {}
        pinned_tuples: List[Any] = []

        by_eligibility: Dict[int, List[SchedRequest]] = {}
        for request in problem.requests:
            by_eligibility.setdefault(len(request.candidates), []).append(
                request)

        for eligibility in sorted(by_eligibility):
            batch = by_eligibility[eligibility]
            self.rng.shuffle(batch)
            for request in batch:
                rows = candidate_rows.get(id(request.candidates))
                if rows is None:
                    rows = numpy.array(
                        [device_index[d] for d in request.candidates],
                        dtype=numpy.intp)
                    candidate_rows[id(request.candidates)] = rows
                    pinned_tuples.append(request.candidates)
                i = request_index[request.request_id]
                costs = matrix[rows, i]
                projected = workloads[rows] + costs
                best = int(projected.argmin())
                best_row = int(rows[best])
                workloads[best_row] += costs[best]
                assigned[device_ids[best_row]].append(request)
        return assigned

    # ------------------------------------------------------------------
    # Algorithm 1.2: Shortest Request First Execution (per device)
    # ------------------------------------------------------------------
    def _srfe_order(
        self, problem: Problem, device_id: str,
        requests: List[SchedRequest],
    ) -> List[str]:
        status = problem.cost_model.initial_status(device_id)
        remaining = list(requests)
        order: List[str] = []
        while remaining:
            # "update the current physical status of d" happens via the
            # chained `status`; re-estimate every remaining request from
            # it and service the shortest.
            best_index = 0
            best_cost = float("inf")
            best_post = status
            for index, request in enumerate(remaining):
                cost, post = problem.cost_model.estimate(
                    request, device_id, status)
                if cost < best_cost:
                    best_cost = cost
                    best_index = index
                    best_post = post
            request = remaining.pop(best_index)
            status = best_post
            order.append(request.request_id)
        return order

    def _srfe_order_vectorized(
        self, problem: Problem, kernel: ColumnKernel, device_id: str,
        requests: List[SchedRequest],
    ) -> List[str]:
        """SRFE with each round's re-estimates as one column call.

        The scalar loop's first-strict-minimum scan in list order is
        numpy's first-occurrence argmin over the same order; the chained
        post-status comes from the kernel, which equals the scalar
        estimate's.
        """
        request_index = {request.request_id: i
                         for i, request in enumerate(problem.requests)}
        status = problem.cost_model.initial_status(device_id)
        remaining = numpy.array(
            [request_index[request.request_id] for request in requests],
            dtype=numpy.intp)
        order: List[str] = []
        while len(remaining):
            costs = kernel.column(device_id, status, remaining)
            best = int(costs.argmin())
            i = int(remaining[best])
            status = kernel.post_status(i, device_id)
            order.append(problem.requests[i].request_id)
            remaining = numpy.delete(remaining, best)
        return order
