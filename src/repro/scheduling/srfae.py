"""Algorithm 2: SRFAE (CAP, proposed by the paper).

Shortest Request First Assignment and Execution (Figure 3, Algorithm 2):
every (request, device) pair goes into a priority structure keyed by its
weight; the algorithm repeatedly extracts the least node, assigns and
services that request on that device, then re-keys the device's
remaining pairs to "the estimated cost for servicing r_l on d_j after
servicing r_i" **plus** the extracted key ``w`` — so keys always equal
projected completion times on that device, honouring both the workload
increase and the physical-status change.

The priority structure is a binary heap with lazy invalidation
(:class:`_LazyHeap`): key updates push a fresh entry and abandon the
stale one; ``pop_min`` discards entries whose key is no longer current,
so all hot operations are C-level ``heapq`` calls. It stands in for the
balanced tree of the paper's Algorithm 2, which yields the same
schedules 6-8x slower in CPython (EXPERIMENTS.md A3).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Dict, List, Tuple

import numpy

from repro.errors import SchedulingError
from repro.scheduling.base import CATEGORY_CAP, Scheduler
from repro.scheduling.problem import Problem
from repro.scheduling.vector_cost import (
    ColumnKernel,
    build_kernel,
    masked_argmin,
)

#: A pair key: (projected completion seconds, insertion serial).
_Key = Tuple[float, int]
#: A pair value: (request_id, device_id).
_Pair = Tuple[str, str]


class _LazyHeap:
    """Binary heap with lazy deletion and explicit remove / re-key.

    ``remove``/``update_key`` never touch the heap array: they retire
    the old key in the live-key map and (for updates) push a fresh
    entry. ``pop_min`` skips entries whose key has been retired. Keys
    are unique (callers append a serial), so a heap entry is live
    exactly when its key is still present in the live map. Entries are
    stored as flat ``(cost, serial, request_id, device_id)`` tuples, so
    every sift comparison resolves on the leading float/serial without
    allocating nested pairs.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, str, str]] = []
        #: serial -> full entry. Serials are the unique half of every
        #: key, so liveness checks hash an int instead of a (float, int)
        #: tuple; keeping the whole entry lets compaction rebuild the
        #: heap from this dict alone.
        self._live: Dict[int, Tuple[float, int, str, str]] = {}

    def __bool__(self) -> bool:
        return bool(self._live)

    def _push(self, entry: Tuple[float, int, str, str]) -> None:
        heap = self._heap
        if len(heap) > 64 + 2 * len(self._live):
            # Mostly stale: rebuild from the live set. Amortized O(1)
            # per push, and it keeps pop_min's sift depth bounded by
            # the live population instead of the push history.
            heap[:] = self._live.values()
            heapq.heapify(heap)
        heapq.heappush(heap, entry)

    def bulk_load(self, items: List[Tuple[_Key, _Pair]]) -> None:
        """Heapify many entries at once (the Lines 1-3 initial fill)."""
        live = self._live
        heap = self._heap
        for key, value in items:
            if key[1] in live:
                raise SchedulingError(f"duplicate key {key!r}")
            entry = key + value
            live[key[1]] = entry
            heap.append(entry)
        heapq.heapify(heap)

    def remove(self, key: _Key) -> _Pair:
        try:
            return self._live.pop(key[1])[2:]
        except KeyError:
            raise SchedulingError(f"key {key!r} not found") from None

    def pop_min(self) -> Tuple[_Key, _Pair]:
        heap = self._heap
        live = self._live
        heappop = heapq.heappop
        while heap:
            entry = heappop(heap)
            if entry[1] in live:  # else stale: retired by remove/update
                del live[entry[1]]
                return entry[:2], entry[2:]
        raise SchedulingError("pop_min from an empty structure")

    def update_key(self, old_key: _Key, new_key: _Key) -> None:
        if old_key == new_key:
            return
        live = self._live
        try:
            old_entry = live.pop(old_key[1])
        except KeyError:
            raise SchedulingError(f"key {old_key!r} not found") from None
        if new_key[1] in live:
            raise SchedulingError(f"duplicate key {new_key!r}")
        entry = new_key + old_entry[2:]
        live[new_key[1]] = entry
        self._push(entry)


class SrfaeScheduler(Scheduler):
    """The paper's Algorithm 2 over a lazy binary heap of pairs."""

    name = "SRFAE"
    category = CATEGORY_CAP

    def _solve(self, problem: Problem) -> Dict[str, List[str]]:
        kernel = build_kernel(problem)
        if kernel is not None:
            return self._solve_vectorized(problem, kernel)
        serial = itertools.count().__next__
        estimate = problem.cost_model.estimate
        tree = _LazyHeap()
        #: device_id -> request_id -> (current tree key, post-servicing
        #: status, request). Storing the post-status alongside the key
        #: means the extracted pair's estimate — produced when the pair
        #: was last keyed — is never recomputed at extraction time.
        #: Keying by device first lets the re-key step walk exactly the
        #: device's live pairs instead of probing every unserviced
        #: request.
        entries: Dict[str, Dict[str, Tuple[_Key, Any, Any]]] = {
            device_id: {} for device_id in problem.device_ids}
        statuses = problem.initial_statuses()
        assignments: Dict[str, List[str]] = {
            device_id: [] for device_id in problem.device_ids}

        # Lines 1-3: insert every eligible pair keyed by its weight.
        initial: List[Tuple[_Key, _Pair]] = []
        for request in problem.requests:
            for device_id in request.candidates:
                cost, post_status = estimate(
                    request, device_id, statuses[device_id])
                key = (cost, serial())
                initial.append((key, (request.request_id, device_id)))
                entries[device_id][request.request_id] = (
                    key, post_status, request)
        tree.bulk_load(initial)

        # Lines 7-20: repeatedly extract the least pair.
        update_key = tree.update_key
        while tree:
            key, (request_id, device_id) = tree.pop_min()
            _, post_status, request = entries[device_id].pop(request_id)
            assignments[device_id].append(request_id)
            completion = key[0]  # w: projected completion on this device

            # Line 15: mark serviced — drop the request's other pairs.
            for other_device in request.candidates:
                stale = entries[other_device].pop(request_id, None)
                if stale is not None:
                    tree.remove(stale[0])

            # The device's physical status advances past this request —
            # to the post-status stored when the pair was keyed.
            status = statuses[device_id] = post_status

            # Lines 16-20: re-key the device's remaining eligible pairs
            # from the *new* status, plus the accumulated workload w.
            device_entries = entries[device_id]
            for other_id, entry in device_entries.items():
                cost, other_post = estimate(entry[2], device_id, status)
                new_key = (cost + completion, serial())
                update_key(entry[0], new_key)
                device_entries[other_id] = (new_key, other_post, entry[2])

        return assignments

    def _solve_vectorized(self, problem: Problem,
                          kernel: ColumnKernel) -> Dict[str, List[str]]:
        """Algorithm 2 over per-device numpy key rows.

        The initial keys are one cost-matrix fill; each assignment then
        re-keys the assigned device with one column. Instead of one
        priority-structure entry per (request, device) pair, each device
        keeps a float64 row of its pairs' current keys over every
        request (``inf`` where it is no candidate) and contributes
        exactly one entry — its row minimum — to a global lazy heap.
        Python work per batch is O(requests + devices + distinct
        candidate tuples' lengths); the pairs are numpy's. Extraction
        order is identical
        to the scalar structures: heap entries order by
        ``(key, epoch, request index, candidate position)``, which
        reproduces the scalar ``(key, insertion serial)`` order because
        (a) initial serials are issued request-major over each request's
        candidate tuple, i.e. ascending ``(request, position)``; (b) a
        re-key refreshes *all* of one device's serials at once, so a
        device's live pairs always share one epoch, epochs of distinct
        devices past init are distinct, and every serial of a later
        epoch exceeds every earlier one; (c) within one device and
        epoch, serials ascend with request index, matching first-
        occurrence ``argmin``. Entries are lazily revalidated on pop:
        a device whose row changed (``gen`` mismatch) or whose
        minimum was assigned elsewhere (``taken``) is recomputed and
        re-pushed — its true key can only have grown, so the heap
        invariant holds.
        """
        requests = problem.requests
        device_ids = problem.device_ids
        n = len(requests)
        m = len(device_ids)
        device_index = {device_id: k
                        for k, device_id in enumerate(device_ids)}
        statuses = problem.initial_statuses()
        assignments: Dict[str, List[str]] = {
            device_id: [] for device_id in device_ids}
        if not n:
            return assignments

        # Eligibility as one (devices x requests) matrix: each request's
        # candidate-tuple position of the device (the scalar serial
        # tie-break within epoch 0), -1 where the device is no
        # candidate. Requests from one AQ and mote share their
        # candidate tuple, so it is written once per distinct tuple.
        sharing: Dict[Tuple[str, ...], List[int]] = {}
        for i, request in enumerate(requests):
            sharing.setdefault(request.candidates, []).append(i)
        position = numpy.full((m, n), -1, dtype=numpy.intp)
        for candidates, indexes in sharing.items():
            rows = numpy.array([device_index[device_id]
                                for device_id in candidates],
                               dtype=numpy.intp)
            position[rows[:, None], numpy.array(indexes, dtype=numpy.intp)] \
                = numpy.arange(len(candidates))[:, None]
        ineligible = position < 0

        # Current keys: a full row per device, the cost from the
        # device's status plus (past the first assignment) the device's
        # accumulated completion time — the same ``cost + w`` the scalar
        # re-key computes — and inf where the device is no candidate.
        # Lines 1-3 key every eligible pair from one matrix fill, and
        # each device's first heap entry is its row's first minimum.
        inf = numpy.inf
        current = numpy.where(
            ineligible, inf, kernel.matrix(device_ids, statuses))
        taken = numpy.zeros(n, dtype=bool)
        generations = [0] * m
        first = current.argmin(axis=1)
        devices = numpy.arange(m)
        heap: List[Tuple[float, int, int, int, int, int]] = [
            (key, 0, i, pos, k, 0)
            for k, (key, i, pos) in enumerate(zip(
                current[devices, first].tolist(), first.tolist(),
                position[devices, first].tolist()))
            if pos >= 0]  # an all-inf row has no candidate
        heapq.heapify(heap)

        assigned = 0
        while assigned < n:
            if not heap:  # pragma: no cover - defensive
                raise SchedulingError("vectorized SRFAE ran out of pairs")
            key, epoch, i, _, k, generation = heapq.heappop(heap)
            if generation != generations[k]:
                continue  # superseded by a newer push for this device
            if taken[i]:
                # The row is current but its minimum was assigned on
                # another device; re-minimize over the untaken rest.
                best = masked_argmin(current[k], taken)
                generations[k] += 1
                if best is not None:
                    heapq.heappush(heap, (
                        float(current[k, best]), epoch, best,
                        int(position[k, best]), k, generations[k]))
                continue

            # Assign: the key is the projected completion time w.
            device_id = device_ids[k]
            assignments[device_id].append(requests[i].request_id)
            taken[i] = True
            assigned += 1
            status = statuses[device_id] = kernel.post_status(i, device_id)
            row = kernel.column(device_id, status) + key
            row[ineligible[k]] = inf
            current[k] = row
            generations[k] += 1
            best = masked_argmin(row, taken)
            if best is not None:
                heapq.heappush(heap, (
                    float(row[best]), assigned, best,
                    int(position[k, best]), k, generations[k]))

        return assignments
