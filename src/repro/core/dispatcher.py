"""The dispatcher: probe, cost-optimize, schedule and execute batches.

This is the "optimizer" of Sections 4–5 at run time: action requests
appearing in a shared action operator "at the same time or within a
short time interval" are drained as one batch, candidates are probed
(unavailable devices excluded), costs estimated from probed status, the
configured scheduling algorithm assigns requests to devices, and
per-device executors service their queues under device locks.

One batch is one :class:`_Batch` record handed down a fixed line of
step methods (:meth:`Dispatcher.dispatch_batch`); a request ends in
exactly one of three exits (``shed_request``, ``_fail``, ``_succeed``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.errors import (
    ActionFailedError,
    AortaError,
    CommunicationError,
    DeviceError,
    QueryError,
    QueueFullError,
    is_transient,
)
from repro.actions.action import ActionDefinition
from repro.actions.request import (
    REASON_DEADLINE,
    REASON_QUEUE_FULL,
    ActionRequest,
)
from repro.comm.layer import CommunicationLayer
from repro.comm.status_cache import DeviceStatusCache
from repro.cost.model import CostModel
from repro.devices.base import Device
from repro.devices.health import DeviceHealthTracker
from repro.plan.action_op import SharedActionOperator
from repro.scheduling import (
    BlockModelKernel,
    LerfaSrfeScheduler,
    ListScheduler,
    Problem,
    RandomScheduler,
    SchedRequest,
    Scheduler,
    SchedulingCostModel,
    SimulatedAnnealingScheduler,
    SrfaeScheduler,
)
from repro.obs.metrics import Counter, Histogram
from repro.obs.spans import Observability
from repro.overload.plane import OverloadControlPlane
from repro.sim import Environment, Event, raise_first_error
from repro.sim.rng import component_seed
from repro.sync.locks import DeviceLockManager, LockToken
from repro.core.config import EngineConfig

#: Factories of the five evaluated algorithms, keyed by config name.
SCHEDULER_FACTORIES = {
    "LERFA+SRFE": LerfaSrfeScheduler,
    "SRFAE": SrfaeScheduler,
    "LS": ListScheduler,
    "SA": SimulatedAnnealingScheduler,
    "RANDOM": RandomScheduler,
}


#: Virtual seconds the dispatcher waits after a first request so that
#: near-simultaneous requests from concurrent queries batch into one
#: scheduling problem (the shared-operator group optimization).
BATCH_WINDOW = 0.1

#: Total times one request may enter a batch under failover (the first
#: dispatch included).
MAX_DISPATCHES = 4


class _ActionCostAdapter(SchedulingCostModel):
    """Bridges the engine cost model into a scheduling problem.

    Request payloads are the :class:`ActionRequest` objects; statuses
    are physical-status dicts from probing. One adapter is built per
    batch.
    """

    #: Profile interpolation has no noise.
    deterministic = True
    #: An estimate runs quantity resolution + profile interpolation —
    #: several times the cost of a memo probe — so an algorithm that
    #: revisits its estimates (SA) memoizes this model. The greedy
    #: algorithms, the default among them, never ask twice and run it
    #: bare.
    cache_by_default = True

    def __init__(
        self,
        cost_model: CostModel,
        action: ActionDefinition,
        devices: Dict[str, Device],
        initial_statuses: Dict[str, Dict[str, float]],
    ) -> None:
        self._cost_model = cost_model
        self._action = action
        self._devices = devices
        self._initial = initial_statuses

    def initial_status(self, device_id: str) -> Dict[str, float]:
        return self._initial[device_id]

    def estimate(self, request: SchedRequest, device_id: str,
                 status: Any) -> Tuple[float, Any]:
        action_request: ActionRequest = request.payload
        estimate = self._cost_model.estimate(
            self._action.name, self._devices[device_id],
            action_request.arguments, status=status)
        return estimate.seconds, estimate.post_status

    def make_column_kernel(self, problem: Problem) -> Optional[
            BlockModelKernel]:
        """A vectorized kernel over the engine cost model's block path.

        Declines (scalar fallback) unless the problem's devices are of
        one type with a registered block resolver for this action (an
        action has one device type, so a mix never reaches here from a
        query).
        """
        devices = [self._devices[device_id]
                   for device_id in problem.device_ids]
        device_types = {device.device_type for device in devices}
        if len(device_types) != 1 or not self._cost_model.supports_block(
                self._action.name, *device_types):
            return None
        return BlockModelKernel(
            self._cost_model, self._action.name, devices,
            [request.payload.arguments for request in problem.requests])


def _service_order(request: ActionRequest) -> Tuple[int, float, float]:
    """Within-device service order under overload control.

    :meth:`~repro.actions.request.ActionRequest.worth` with the tier
    reversed: highest tier first, then tightest deadline, then oldest.
    The sort is stable, so requests tied on all three keep the
    scheduler's completion-time-optimal order.
    """
    tier, deadline, created_at = request.worth()
    return (-tier, deadline, created_at)


@dataclass
class DispatchReport:
    """Outcome of dispatching one batch of one action's requests."""

    action_name: str
    batch_size: int
    scheduled: int
    unschedulable: int
    serviced: int
    failed: int
    scheduling_seconds: float
    batch_started_at: float
    batch_finished_at: float
    #: Hit/miss counters of the scheduler's cost memo for this batch
    #: alone (None unless the algorithm memoizes — SA — and something
    #: was scheduled).
    cache_stats: Optional[Dict[str, float]] = None
    #: Execution attempts made for this batch's requests (one per
    #: executed request with the default policy).
    attempts: int = 0
    #: Fault-tolerance accounting from here on (all zero with the
    #: default policy). Same-device retries after transient failures.
    retries: int = 0
    #: Requests re-queued for failover re-dispatch in a later batch
    #: (alive, so counted in neither ``serviced`` nor ``failed``).
    failed_over: int = 0
    #: Candidate devices excluded up front by an open circuit breaker.
    quarantined_skipped: int = 0

    @property
    def makespan_seconds(self) -> float:
        """Batch appearance to last completion, the Section 5 makespan."""
        return self.batch_finished_at - self.batch_started_at


@dataclass
class _Batch:
    """What the steps of one batch share, filled in paper order."""

    action: ActionDefinition
    #: The batch's live requests (admission sheds the expired).
    requests: List[ActionRequest]
    started_at: float
    #: The ``dispatch.batch`` span, parent of the batch's other spans
    #: (None: they take the innermost open span).
    span: Any = None
    #: Candidate devices of the batch, quarantined ones excluded.
    devices: Dict[str, Device] = field(default_factory=dict)
    #: Physical status of every candidate that answered its probe; a
    #: device is available to this batch iff it has an entry.
    statuses: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Each request with an available candidate, paired with those
    #: candidates (the request itself is the payload).
    schedulable: List[SchedRequest] = field(default_factory=list)
    #: The schedule: device id -> its requests in service order.
    queues: Dict[str, List[ActionRequest]] = field(default_factory=dict)
    #: The tallies: every step counts what it decided for this batch's
    #: own requests here, so overlapping batches never mix numbers
    #: (sizes and the finish time are filled in by ``_report``).
    report: DispatchReport = field(init=False)

    def __post_init__(self) -> None:
        self.report = DispatchReport(
            action_name=self.action.name, batch_size=0, scheduled=0,
            unschedulable=0, serviced=0, failed=0,
            scheduling_seconds=0.0, batch_started_at=self.started_at,
            batch_finished_at=self.started_at)


class Dispatcher:
    """Drains shared action operators and drives execution on devices."""

    def __init__(
        self,
        env: Environment,
        comm: CommunicationLayer,
        cost_model: CostModel,
        locks: DeviceLockManager,
        config: EngineConfig,
        obs: Observability,
        health: Optional[DeviceHealthTracker] = None,
        status_cache: Optional[DeviceStatusCache] = None,
        overload: Optional[OverloadControlPlane] = None,
    ) -> None:
        self.env = env
        self.comm = comm
        self.cost_model = cost_model
        self.locks = locks
        self.config = config
        #: The engine's sink: metrics, trace records and spans.
        self.obs = obs
        #: Per-device circuit breakers (None = health tracking off).
        self.health = health
        #: TTL device-status cache (None = every batch probes every
        #: candidate, as Section 4 prescribes).
        self.status_cache = status_cache
        self.scheduler: Scheduler = SCHEDULER_FACTORIES[config.scheduler](
            config.scheduler_seed)
        self._operators: Dict[str, SharedActionOperator] = {}
        #: The overload-control plane (None = off, the pre-overload
        #: behaviour: unbounded queues, no admission, no shedding).
        self.overload = overload
        if overload is not None:
            overload.bind(shed=self.shed_request,
                          operators=lambda: list(self._operators.values()))
        self._wakeup: Optional[Event] = None
        self._running = False
        #: Deterministic jitter stream for retry backoff, derived from
        #: ``config.scheduler_seed`` (not the engine seed) so
        #: fault-tolerant runs replay exactly; every shard of a fleet
        #: shares the config, so all draw the same stream.
        self._retry_rng = random.Random(
            component_seed(config.scheduler_seed, "dispatcher:retry-jitter"))
        #: All requests that went through dispatch, in completion order.
        self.completed: List[ActionRequest] = []
        self.reports: List[DispatchReport] = []
        # Counted at the exits (a shed is the overload plane's count)
        # and per attempt; batch series per action.
        registry = self.obs.registry
        self._serviced = registry.counter("dispatch.requests_serviced")
        self._failed = registry.counter("dispatch.requests_failed")
        self._failovers = registry.counter("dispatch.failovers")
        self._quarantined_skipped = registry.counter(
            "dispatch.quarantined_skipped")
        self._attempts, self._retries = (
            registry.family(Counter, f"dispatch.{name}", "device")
            for name in ("attempts", "retries"))
        self._batches = registry.family(Counter, "dispatch.batches",
                                        "action")
        self._batch_size = self.obs.family(Histogram, "dispatch.batch_size",
                                           "action")
        self._makespan = self.obs.family(
            Histogram, "dispatch.makespan_seconds")[()]
        self._scheduling_wallclock = self.obs.family(
            Histogram, "dispatch.scheduling_wallclock_seconds", "algorithm")

    # ------------------------------------------------------------------
    # Shared action operators
    # ------------------------------------------------------------------
    def operator_for(self, action: ActionDefinition) -> SharedActionOperator:
        """The (single) shared operator of one action, created lazily."""
        if action.name not in self._operators:
            operator = SharedActionOperator(action)
            operator.on_submit = self._on_submit
            if self.overload is not None:
                self.overload.configure_operator(
                    operator, on_evict=self.shed_request)
            self._operators[action.name] = operator
        return self._operators[action.name]

    def _on_submit(self, request: ActionRequest) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def submit(self, operator: SharedActionOperator,
               request: ActionRequest) -> bool:
        """Submit one request, through the overload plane when present.

        Without overload control this is a plain operator submit that
        always succeeds; with it, the request passes admission control
        and bounded-queue backpressure first and may come back False
        (the request is then marked REJECTED and fully accounted).
        """
        if self.overload is None:
            operator.submit(request)
            return True
        return self.overload.offer(operator, request)

    # ------------------------------------------------------------------
    # The three exits: a request ends in exactly one of them, at the
    # moment it ends — marked, logged, counted and traced together.
    # ------------------------------------------------------------------
    def shed_request(self, request: ActionRequest, reason: str) -> None:
        """Uniform shed accounting for every drop path.

        Deadline expiry, pressure shedding, queue eviction and
        backpressure on failover re-queue all land here: the request is
        marked SHED, enters the completion log, and is traced and
        counted once — no path leaks dropped work into pending counts.
        """
        request.mark_shed(self.env.now, reason)
        self._complete(request, "request_shed",
                       priority=request.priority, reason=reason)
        if self.overload is not None:
            self.overload.note_shed(request, reason)

    def _fail(self, request: ActionRequest, device_id: Optional[str],
              reason: str) -> None:
        """The exit of every FAILED request (``device_id`` None: no
        candidate answered, it never reached a device)."""
        request.mark_failed(self.env.now, reason)
        self._failed.inc()
        self._complete(request, "request_failed",
                       device=device_id, reason=reason)

    def _succeed(self, request: ActionRequest, device_id: str,
                 result: Any) -> None:
        """The exit of every SERVICED request."""
        request.mark_serviced(self.env.now, result)
        self._serviced.inc()
        self._complete(request, "request_serviced",
                       device=device_id, reason=request.failure_reason)

    def _complete(self, request: ActionRequest, kind: str,
                  **detail: Any) -> None:
        self.completed.append(request)
        self.obs.tracer.record(
            self.env.now, kind, request=request.request_id,
            action=request.action_name, query=request.query_id, **detail)

    @property
    def pending_requests(self) -> int:
        return sum(op.pending_count for op in self._operators.values())

    # ------------------------------------------------------------------
    # The dispatch loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the dispatch loop as a simulation process."""
        if self._running:
            raise AortaError("dispatcher already started")
        self._running = True
        self.env.process(self._run())

    def _run(self) -> Generator[Any, Any, None]:
        while True:
            if self.pending_requests == 0:
                self._wakeup = self.env.event()
                yield self._wakeup
                self._wakeup = None
            # Batch near-simultaneous submissions (group optimization).
            yield self.env.timeout(BATCH_WINDOW)
            yield from self.dispatch_pending()

    def dispatch_pending(self) -> Generator[Any, Any, List[DispatchReport]]:
        """Drain every operator and dispatch its batch. Synchronous
        callers (tests, benchmarks) may drive this directly instead of
        running the loop.

        Every operator is drained before anything is dispatched, from a
        snapshot of the operator table: dispatching a batch can create
        operators mid-drain (failover re-dispatch registers the shared
        operator lazily), which must not mutate the dict under this
        loop. The batches are the members of one fan-out, a lone batch
        too, so independent actions' probe/schedule/execute pipelines
        overlap; with nothing drained this returns without waiting.
        Reports come back in operator order. A batch's unexpected error
        is raised here once every sibling batch has ended.
        """
        batches = [(operator.action, batch)
                   for operator in list(self._operators.values())
                   for batch in [operator.drain()] if batch]
        if not batches:
            return []
        reports = yield self.env.fan_out(
            self.dispatch_batch(action, batch) for action, batch in batches)
        return raise_first_error(reports)

    # ------------------------------------------------------------------
    # One batch: admit -> probe -> partition -> schedule -> service
    # -> report
    # ------------------------------------------------------------------
    def dispatch_batch(
        self, action: ActionDefinition, requests: List[ActionRequest]
    ) -> Generator[Any, Any, DispatchReport]:
        """The Section 4–5 pipeline over one batch record, in paper
        order. Each step reads what the steps before it left on the
        record, and is the only one to consult the feature objects it
        owns; a request that ends does so through one of the three
        exits above, whichever step it is in."""
        # Detached: the batch runs as a fan-out member, interleaved
        # with continuous polls — dynamic nesting would misparent them.
        span = self.obs.span("dispatch.batch", detached=True,
                             action=action.name, size=len(requests))
        with span:
            batch = _Batch(action, requests, self.env.now, span)
            self._admit(batch)
            yield from self._probe(batch)
            self._partition(batch)
            self._schedule(batch)
            yield from self._service(batch)
            return self._report(batch)

    def _shed_if_expired(self, request: ActionRequest) -> bool:
        """Under overload control, shed a request whose deadline has
        passed — a late answer has no value. True when it was shed."""
        if self.overload is None or \
                not request.deadline_expired(self.env.now):
            return False
        self.shed_request(request, REASON_DEADLINE)
        return True

    def _admit(self, batch: _Batch) -> None:
        """Shed the expired, look up the candidates, drop the quarantined.

        Expired requests go before any probe or scheduling work is
        spent on them. Quarantine gate: a device with an open circuit
        breaker is excluded before probing — it gets no traffic at all
        until its backoff window expires and a probation probe readmits
        it.
        """
        batch.requests = [request for request in batch.requests
                          if not self._shed_if_expired(request)]
        devices, registry = batch.devices, self.comm.registry
        for request in batch.requests:
            for device_id in request.candidates:
                if device_id not in devices:
                    devices[device_id] = registry.get(device_id)
        if self.health is not None:
            for device_id in list(devices):
                if not self.health.allow_candidate(device_id):
                    del devices[device_id]
                    batch.report.quarantined_skipped += 1

    def _probe(self, batch: _Batch) -> Generator[Any, Any, None]:
        """Fill ``batch.statuses`` with every candidate that answers."""
        if not self.config.probing:
            # Probing disabled: the optimizer has no availability
            # information, so every candidate is assumed reachable and
            # costed from its last-known status; execution on a dead
            # device then fails (the Section 4 ablation).
            for device_id, device in batch.devices.items():
                batch.statuses[device_id] = device.physical_status()
            return
        cache = self.status_cache
        to_probe = list(batch.devices.values())
        if cache is not None:
            # Fresh cache entries stand in for the probe exchange: the
            # device was seen within its type's TTL, so cost it from
            # that status and skip the wire round-trips.
            to_probe = []
            for device in batch.devices.values():
                cached = cache.lookup(device)
                if cached is not None:
                    batch.statuses[device.device_id] = cached
                else:
                    to_probe.append(device)
        results = yield from self.comm.prober.probe_all(
            to_probe, parent_span=batch.span)
        for device, result in zip(to_probe, results):
            if result.available:
                batch.statuses[device.device_id] = result.status
                if cache is not None:
                    cache.store(device, result.status)
            else:
                if cache is not None:
                    cache.invalidate(device.device_id,
                                     reason="probe-failure")
                self.obs.tracer.record(
                    self.env.now, "probe_failed",
                    device=device.device_id, error=result.error)

    def _partition(self, batch: _Batch) -> None:
        """Split the batch: schedulable, failed over, or failed."""
        reason, available = "no available candidate", batch.statuses
        # Each distinct candidate tuple is filtered once per batch, and a
        # request whose every candidate answered keeps its own tuple, so
        # requests sharing one candidate set keep sharing one object.
        answered: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        for request in batch.requests:
            request.dispatches += 1
            candidates = answered.get(request.candidates)
            if candidates is None:
                candidates = answered[request.candidates] = tuple(
                    device_id for device_id in request.candidates
                    if device_id in available)
            if len(candidates) == len(request.candidates):
                candidates = request.candidates
            if candidates:
                if not self.config.retry.failover:
                    # With failover the request keeps its full set: a
                    # device that is merely down this batch may service
                    # it after a failover re-dispatch.
                    request.candidates = candidates
                batch.schedulable.append(SchedRequest(
                    request.request_id, candidates, payload=request))
            elif not self._requeue_for_failover(batch, request, None, reason):
                batch.report.unschedulable += 1
                self._fail(request, None, reason)

    def _schedule(self, batch: _Batch) -> None:
        """Run the configured algorithm; fill ``batch.queues``."""
        if not batch.schedulable:
            return
        problem = Problem(
            requests=tuple(batch.schedulable),
            device_ids=tuple(device_id for device_id in batch.devices
                             if device_id in batch.statuses),
            cost_model=_ActionCostAdapter(self.cost_model, batch.action,
                                          batch.devices, batch.statuses),
            label=f"batch:{batch.action.name}@{batch.started_at}",
        )
        with self.obs.span("dispatch.schedule", parent=batch.span,
                           algorithm=self.scheduler.name,
                           size=len(batch.schedulable)):
            schedule = self.scheduler.schedule(problem)
        batch.report.scheduling_seconds = schedule.scheduling_seconds
        # Read now: another action's batch may schedule while this one
        # waits on its executions.
        batch.report.cache_stats = self.scheduler.last_cache_stats
        by_id = {entry.request_id: entry.payload
                 for entry in batch.schedulable}
        for device_id, queue in schedule.assignments.items():
            if queue:
                batch.queues[device_id] = [by_id[request_id]
                                       for request_id in queue]
                for request in batch.queues[device_id]:
                    request.mark_assigned(device_id)

    def _service(self, batch: _Batch) -> Generator[Any, Any, None]:
        """Execute ``batch.queues`` and wait for the slowest device.

        The device queues are the members of one fan-out (§5: the
        batch ends when its slowest device does). An unexpected error
        in one is raised here once every queue has ended.
        """
        if self.config.locking:
            bodies = [
                self._service_queue(batch, batch.devices[device_id], queue)
                for device_id, queue in batch.queues.items()]
        else:
            # Unsynchronized: every request fires immediately and
            # concurrently — the Section 6.2 interference mode.
            bodies = [
                self._execute_one(batch, batch.devices[device_id], request)
                for device_id, queue in batch.queues.items()
                for request in queue]
        if bodies:
            raise_first_error((yield self.env.fan_out(bodies)))

    def _report(self, batch: _Batch) -> DispatchReport:
        """Close the batch's report; count and trace the batch."""
        report = batch.report
        report.batch_size = len(batch.requests)
        report.scheduled = len(batch.schedulable)
        report.batch_finished_at = self.env.now
        self.reports.append(report)
        name = batch.action.name
        self._batches[name].inc()
        self._batch_size[name].observe(report.batch_size)
        self._quarantined_skipped.inc(report.quarantined_skipped)
        self._makespan.observe(report.makespan_seconds)
        self._scheduling_wallclock[self.scheduler.name].observe(
            report.scheduling_seconds)
        self.obs.tracer.record(
            self.env.now, "batch_dispatched", action=name,
            size=report.batch_size, serviced=report.serviced,
            failed=report.failed + report.unschedulable)
        return report

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _service_queue(
        self, batch: _Batch, device: Device, queue: List[ActionRequest],
    ) -> Generator[Any, Any, None]:
        """Service one device's queue of ``batch`` in order, under its lock.

        Under overload control the order is high tiers first (stable,
        so the scheduler's order is kept within a tier): under pressure
        the work most worth doing completes first.
        """
        if self.overload is not None:
            queue = sorted(queue, key=_service_order)
        lease = self.config.lock_lease_seconds
        for index, request in enumerate(queue):
            if self._shed_if_expired(request):
                # Earlier work on this device already blew the deadline.
                continue
            token = LockToken(request.request_id)
            yield from self.locks.acquire(device.device_id, token,
                                          lease_seconds=lease)
            try:
                yield from self._execute_one(batch, device, request)
            finally:
                self.locks.release(device.device_id, token)
            if self.config.retry.failover and not device.reachable:
                # The device died: drain the rest of its queue back to
                # the dispatcher for reassignment instead of grinding
                # through attempts that are doomed to the same fate. A
                # request that expired while queued behind the dead
                # device is shed, not failed or leaked back to pending.
                for waiting in queue[index + 1:]:
                    if not self._shed_if_expired(waiting) and \
                            not self._requeue_for_failover(
                                batch, waiting, device.device_id,
                                "queue drained after device failure"):
                        batch.report.failed += 1
                        self._fail(
                            waiting, device.device_id,
                            f"device {device.device_id!r} failed while "
                            f"request was queued")
                break

    def _execute_one(
        self, batch: _Batch, device: Device, request: ActionRequest,
    ) -> Generator[Any, Any, None]:
        """Run one request on its assigned device and end it.

        The attempts run inside the ``dispatch.execute`` span; the
        request leaves through its exit once the span has closed. No
        outcome means the request did not end here: it was requeued for
        failover (the batch that finally services or fails it ends it)
        or the re-queue hit backpressure and ``shed_request`` ended it.
        """
        with self.obs.span("dispatch.execute", parent=batch.span,
                           detached=True, request=request.request_id,
                           device=device.device_id):
            try:
                outcome = yield from self._execute_attempts(batch, device,
                                                            request)
            finally:
                if self.status_cache is not None:
                    # Executing on the device changed its physical
                    # status (position, battery, queue depth): the
                    # cached snapshot is stale for the next batch
                    # whatever the outcome.
                    self.status_cache.invalidate(device.device_id,
                                                 reason="execution")
        if outcome is None:
            return
        serviced, detail = outcome
        if serviced:
            batch.report.serviced += 1
            self._succeed(request, device.device_id, detail)
        else:
            batch.report.failed += 1
            self._fail(request, device.device_id, detail)

    def _execute_attempts(
        self, batch: _Batch, device: Device, request: ActionRequest,
    ) -> Generator[Any, Any, Optional[Tuple[bool, Any]]]:
        """The attempt/retry/failover loop of one request execution.

        With the default policy this is a single attempt. On a
        transient failure with attempts left, the request retries on
        its assigned device after an exponential, deterministically
        jittered backoff; once attempts are exhausted, failover (if
        enabled) re-queues the request for the next batch minus the
        failed device. Returns ``(True, result)``, ``(False, reason)``
        or None when the request was handed on.
        """
        policy = self.config.retry
        attempt = 0
        while True:
            attempt += 1
            request.attempts += 1
            batch.report.attempts += 1
            self._attempts[device.device_id].inc()
            try:
                result = yield from batch.action.execute(device,
                                                     request.arguments)
            except ActionFailedError as exc:
                transient = is_transient(exc)
                reason = exc.reason
            except (DeviceError, CommunicationError, QueryError) as exc:
                transient = is_transient(exc)
                reason = str(exc)
            else:
                if self.health is not None:
                    self.health.record_success(device.device_id)
                return True, result
            if transient and self.health is not None:
                self.health.record_failure(device.device_id, reason=reason)
            if transient and attempt < policy.max_attempts:
                batch.report.retries += 1
                self._retries[device.device_id].inc()
                backoff = policy.backoff_seconds(attempt, self._retry_rng)
                self.obs.tracer.record(
                    self.env.now, "request_retry",
                    request=request.request_id, device=device.device_id,
                    attempt=attempt, backoff=backoff, reason=reason)
                if backoff > 0:
                    yield self.env.timeout(backoff)
                continue
            if transient and self._requeue_for_failover(
                    batch, request, device.device_id, reason):
                return None
            return False, reason

    def _requeue_for_failover(
        self, batch: _Batch, request: ActionRequest,
        failed_device: Optional[str], reason: str,
    ) -> bool:
        """Re-enter ``request`` into its operator for the next batch.

        The failed device is blacklisted from the candidate set so the
        scheduler reassigns the request to a surviving candidate.
        Returns False (caller must fail the request) when failover is
        off, the dispatch cap is reached, or no candidate would remain.
        """
        if not self.config.retry.failover:
            return False
        if request.dispatches >= MAX_DISPATCHES:
            return False
        surviving = tuple(device_id for device_id in request.candidates
                          if device_id != failed_device)
        if not surviving:
            return False
        request.mark_requeued(failed_device)
        try:
            # Created lazily: a direct dispatch_batch caller never
            # submitted through the shared operator.
            self.operator_for(batch.action).submit(request)
        except QueueFullError:
            # Bounded queue refused the re-entry: the request was
            # already admitted once, so this is a shed (accounted,
            # completed), not a silent failure. Returning True tells
            # the caller the request needs no further handling.
            self.shed_request(request, REASON_QUEUE_FULL)
            return True
        batch.report.failed_over += 1
        self._failovers.inc()
        self.obs.tracer.record(
            self.env.now, "request_failed_over",
            request=request.request_id, failed_device=failed_device,
            surviving=len(surviving), dispatches=request.dispatches,
            reason=reason)
        return True
