"""Incremental warm-start scheduling across recurring batches.

The dispatcher re-solves an action's scheduling problem on every poll
cycle, but between consecutive batches most of the world is unchanged:
the same requests are pending, and most devices' head statuses are
exactly where the previous schedule left them. Re-running the full
algorithm re-derives the same placement from scratch.

:class:`IncrementalScheduler` wraps any :class:`Scheduler` and persists
the previous batch's placement plus the cost-oracle state. On the next
batch it computes a **dirty set** — the devices whose initial status
actually changed, seeded by the signals the engine already emits
(health transitions, status-cache invalidations, executions; see
``core/dispatcher.py``) and verified by value against the previous
statuses, so a spurious signal can never degrade the schedule. Only the
requests that must move are re-placed:

* requests whose fingerprint is new or changed (new work, changed
  candidate sets or payloads), and
* requests previously placed on a dirty device (their placement was
  justified by a status that no longer holds);

everything else is **spliced** verbatim from the previous schedule, and
the re-placement runs the inner algorithm on a *warm* sub-problem whose
per-device initial workloads and statuses are the splice's end state —
so re-placed requests queue up behind the kept ones exactly as the
algorithms' completion-time bookkeeping expects.

Identity guarantees (property-tested):

* the first batch, a batch whose device set changed, and any batch
  with nothing to splice (every device dirty, or every request new)
  are solved by running the inner algorithm on the problem as given
  (with its rng reseeded), so they equal a fresh scheduler's output
  exactly;
* an unchanged problem — under ANY dirty signals — re-places nothing
  and returns the previous schedule, which equals a full re-run
  bit-for-bit (deterministic cost model + reseeded rng);
* under partial status changes the spliced schedule is always feasible
  and keeps every clean request on its previous device in its previous
  order; the re-placed remainder is optimized against the splice. This
  is the event-driven-recomputation trade: placements justified by
  unchanged state are provably unchanged, placements justified by
  changed state are recomputed, and cross-effects between the two are
  deliberately not chased (that would be the full run).

Requests are matched across batches by a **fingerprint**, not identity:
the engine allocates a fresh ``request_id`` for every emission, so
recurring batches of the same logical work carry disjoint ids. The
default fingerprint is ``(request_id, candidates, frozen payload)``
(standalone problems have stable ids); the dispatcher supplies a
content-based fingerprint instead.

A warm batch costs what a plain one does: the warm sub-problem hands a
vectorizing inner algorithm the same column kernel the original
problem would (and the splice itself is walked through it), and the
shared cost memo is cut back to the batch just placed, so neither the
scalar oracle nor memory grows with the number of batches.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.errors import SchedulingError
from repro.scheduling.base import Schedule, Scheduler
from repro.scheduling.cost_cache import CachingCostModel, freeze_status
from repro.scheduling.problem import (
    Problem,
    SchedRequest,
    SchedulingCostModel,
)
from repro.scheduling.vector_cost import ColumnKernel, build_kernel

Fingerprint = Callable[[SchedRequest], Hashable]


def default_fingerprint(request: SchedRequest) -> Hashable:
    """Identity of a request across batches: id, candidates, payload."""
    if request.payload is None:
        payload_key: Hashable = None
    else:
        try:
            payload_key = freeze_status(request.payload)
        except SchedulingError:
            payload_key = id(request.payload)
    return (request.request_id, request.candidates, payload_key)


@dataclass
class IncrementalStats:
    """Cumulative counters over an incremental scheduler's lifetime."""

    batches: int = 0
    full_runs: int = 0
    reused_requests: int = 0
    replaced_requests: int = 0
    dirty_devices: int = 0
    signaled_devices: int = 0
    #: Shared cost-oracle lookups over all batches (the per-batch
    #: deltas are each schedule's ``last_cache_stats``).
    cache_hits: int = 0
    cache_misses: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "batches": self.batches,
            "full_runs": self.full_runs,
            "reused_requests": self.reused_requests,
            "replaced_requests": self.replaced_requests,
            "dirty_devices": self.dirty_devices,
            "signaled_devices": self.signaled_devices,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


class _WarmStartModel(SchedulingCostModel):
    """The inner model as seen *after* the spliced prefix executed.

    ``initial_status``/``initial_workload`` report each device's status
    and completion time at the end of its kept queue; estimates pass
    through unchanged. ``cache_by_default`` is off — the wrapped model
    is already the (possibly shared) memoizing oracle.
    """

    cache_by_default = False

    def __init__(self, inner: SchedulingCostModel,
                 statuses: Dict[str, Any],
                 workloads: Dict[str, float]) -> None:
        self._inner = inner
        self._statuses = statuses
        self._workloads = workloads

    @property
    def deterministic(self) -> bool:
        return getattr(self._inner, "deterministic", True)

    def initial_status(self, device_id: str) -> Any:
        return self._statuses[device_id]

    def initial_workload(self, device_id: str) -> float:
        return self._workloads[device_id]

    def estimate(self, request: SchedRequest, device_id: str,
                 status: Any) -> Tuple[float, Any]:
        return self._inner.estimate(request, device_id, status)

    def actual(self, request: SchedRequest, device_id: str,
               status: Any) -> Tuple[float, Any]:
        return self._inner.actual(request, device_id, status)

    def make_column_kernel(self, problem: Problem) -> Optional[ColumnKernel]:
        """The inner model's kernel for the warm sub-problem.

        A kernel answers from the statuses it is handed, never from the
        model's initial ones, so the unwrapped model's kernel is exact
        here; without this hook a vectorizing scheduler would silently
        take the scalar walk on every warm batch.
        """
        return build_kernel(replace(problem, cost_model=self._inner))


@dataclass
class _BatchState:
    """What the next batch needs to know about the previous one."""

    device_ids: Tuple[str, ...]
    #: device_id -> frozen initial status the schedule was computed from.
    frozen_statuses: Dict[str, Hashable]
    #: device_id -> ordered fingerprints of its queue.
    queues: Dict[str, List[Hashable]]
    #: fingerprint -> device it was placed on.
    placement: Dict[Hashable, str] = field(default_factory=dict)


class IncrementalScheduler(Scheduler):
    """Warm-start wrapper around any scheduling algorithm.

    ``cost_cache`` optionally supplies a persistent
    :class:`CachingCostModel` shared across batches (and with the
    executor); it must wrap the same cost-model instance the problems
    carry. ``fingerprint`` overrides cross-batch request matching.
    Dirty devices are announced via :meth:`mark_dirty`; announcements
    are verified against the devices' actual status change, so they can
    be generous. Statistics accumulate in :attr:`stats`.
    """

    category = ""

    def __init__(self, inner: Scheduler, *,
                 cost_cache: Optional[CachingCostModel] = None,
                 fingerprint: Optional[Fingerprint] = None) -> None:
        super().__init__(seed=inner.seed, cost_cache=False)
        self.inner = inner
        self.name = f"{inner.name}+warm"
        self.category = inner.category
        self.shared_cache = cost_cache
        self.fingerprint: Fingerprint = fingerprint or default_fingerprint
        self.stats = IncrementalStats()
        self._signaled: Set[str] = set()
        self._previous: Optional[_BatchState] = None

    # ------------------------------------------------------------------
    # Dirty signals
    # ------------------------------------------------------------------
    def mark_dirty(self, device_id: str) -> None:
        """Announce that a device's status may have changed."""
        self._signaled.add(device_id)

    def reset(self) -> None:
        """Forget the previous batch; the next run is a full run."""
        self._previous = None
        self._signaled.clear()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, problem: Problem) -> Schedule:
        started = time.perf_counter()
        signaled = self._signaled
        self._signaled = set()
        self.stats.batches += 1
        self.stats.signaled_devices += len(signaled)
        cache = self.shared_cache
        hits_before, misses_before = ((cache.hits, cache.misses)
                                      if cache is not None else (0, 0))

        problem = self._with_shared_cache(problem)
        model = problem.cost_model
        try:
            frozen = {device_id: freeze_status(model.initial_status(device_id))
                      for device_id in problem.device_ids}
        except SchedulingError:
            frozen = None  # unfreezable statuses: no cross-batch reuse

        fingerprints = [self.fingerprint(request)
                        for request in problem.requests]
        stable = len(set(fingerprints)) == len(fingerprints)

        previous = self._previous
        if (previous is None or frozen is None or not stable
                or previous.device_ids != problem.device_ids):
            schedule = self._full_run(problem)
        else:
            dirty = {device_id for device_id in problem.device_ids
                     if frozen[device_id]
                     != previous.frozen_statuses[device_id]}
            self.stats.dirty_devices += len(dirty)
            schedule = self._warm_run(problem, previous, dirty,
                                      fingerprints)
        schedule.scheduling_seconds = time.perf_counter() - started

        if frozen is not None and stable:
            id_to_fingerprint = {
                request.request_id: fingerprint
                for request, fingerprint in zip(problem.requests,
                                                fingerprints)}
            queues: Dict[str, List[Hashable]] = {
                device_id: [] for device_id in problem.device_ids}
            placement: Dict[Hashable, str] = {}
            for device_id, queue in schedule.assignments.items():
                for request_id in queue:
                    fingerprint = id_to_fingerprint[request_id]
                    queues[device_id].append(fingerprint)
                    placement[fingerprint] = device_id
            self._previous = _BatchState(
                device_ids=problem.device_ids,
                frozen_statuses=frozen,
                queues=queues,
                placement=placement,
            )
        else:
            self._previous = None
        if cache is not None:
            # Request ids never recur in the engine, so entries of any
            # other batch can only be dead weight.
            cache.retain_requests(
                {request.request_id for request in problem.requests})
            hits = cache.hits - hits_before
            misses = cache.misses - misses_before
            self.stats.cache_hits += hits
            self.stats.cache_misses += misses
            self.last_cache_stats = {
                "hits": hits,
                "misses": misses,
                "entries": cache.entries,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            }
        else:
            self.last_cache_stats = self.inner.last_cache_stats
        return schedule

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _with_shared_cache(self, problem: Problem) -> Problem:
        cache = self.shared_cache
        if cache is None:
            return problem
        if isinstance(problem.cost_model, CachingCostModel):
            return problem
        if cache.inner is not problem.cost_model:
            raise SchedulingError(
                "shared cost cache wraps a different cost model than the "
                "problem's; build the cache from problem.cost_model"
            )
        if not getattr(problem.cost_model, "deterministic", True):
            return problem
        return replace(problem, cost_model=cache)

    def _run_inner(self, problem: Problem) -> Schedule:
        # Reseed so every batch's placement is a pure function of the
        # problem (plus seed), never of how many batches ran before —
        # that is what makes "warm equals full" checkable at all.
        self.inner.rng = random.Random(self.inner.seed)
        return self.inner.schedule(problem)

    def _full_run(self, problem: Problem) -> Schedule:
        self.stats.full_runs += 1
        self.stats.replaced_requests += len(problem.requests)
        schedule = self._run_inner(problem)
        return Schedule(algorithm=self.name,
                        assignments=schedule.assignments)

    def _warm_run(self, problem: Problem, previous: _BatchState,
                  dirty: Set[str],
                  fingerprints: List[Hashable]) -> Schedule:
        by_fingerprint = dict(zip(fingerprints, problem.requests))
        replaced_keys = set()
        for fingerprint in fingerprints:
            placed_on = previous.placement.get(fingerprint)
            if placed_on is None or placed_on in dirty:
                replaced_keys.add(fingerprint)

        # Splice: previous queue order on clean devices, dropping
        # requests that disappeared from the batch.
        kept: Dict[str, List[SchedRequest]] = {
            device_id: [] for device_id in problem.device_ids}
        for device_id, queue in previous.queues.items():
            if device_id in dirty:
                continue
            for fingerprint in queue:
                request = by_fingerprint.get(fingerprint)
                if request is not None:
                    kept[device_id].append(request)
        self.stats.reused_requests += sum(len(q) for q in kept.values())
        self.stats.replaced_requests += len(replaced_keys)

        assignments: Dict[str, List[str]] = {
            device_id: [request.request_id for request in queue]
            for device_id, queue in kept.items()}
        if replaced_keys and not any(kept.values()):
            # Nothing to splice behind: the warm sub-problem would be
            # the original problem, so solve that.
            assignments = self._run_inner(problem).assignments
        elif replaced_keys:
            statuses, workloads = self._splice_end_state(problem, kept)
            sub_problem = Problem(
                requests=tuple(
                    request for fingerprint, request
                    in zip(fingerprints, problem.requests)
                    if fingerprint in replaced_keys),
                device_ids=problem.device_ids,
                cost_model=_WarmStartModel(problem.cost_model, statuses,
                                           workloads),
                label=f"{problem.label}+warm" if problem.label else "warm",
            )
            sub_schedule = self._run_inner(sub_problem)
            for device_id, queue in sub_schedule.assignments.items():
                assignments[device_id].extend(queue)

        schedule = Schedule(algorithm=self.name, assignments=assignments)
        schedule.validate(problem)
        return schedule

    def _splice_end_state(
        self, problem: Problem, kept: Dict[str, List[SchedRequest]],
    ) -> Tuple[Dict[str, Any], Dict[str, float]]:
        """Each device's status and completion time after its kept queue.

        Walks through the column kernel when the inner algorithm
        vectorizes (bit-equal to the scalar walk by the kernel
        contract), so a vectorized batch makes no scalar estimates.
        """
        model = problem.cost_model
        kernel = build_kernel(problem) if self.inner.vectorize else None
        index_of = ({request.request_id: index
                     for index, request in enumerate(problem.requests)}
                    if kernel is not None else {})
        statuses: Dict[str, Any] = {}
        workloads: Dict[str, float] = {}
        for device_id in problem.device_ids:
            status = model.initial_status(device_id)
            elapsed = model.initial_workload(device_id)
            for request in kept[device_id]:
                if kernel is not None:
                    index = index_of[request.request_id]
                    seconds = float(
                        kernel.column(device_id, status, [index])[0])
                    status = kernel.post_status(index, device_id)
                else:
                    seconds, status = model.estimate(request, device_id,
                                                     status)
                elapsed += seconds
            statuses[device_id] = status
            workloads[device_id] = elapsed
        return statuses, workloads
