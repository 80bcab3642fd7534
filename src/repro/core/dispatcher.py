"""The dispatcher: probe, cost-optimize, schedule and execute batches.

This is the "optimizer" of Sections 4–5 at run time: action requests
appearing in a shared action operator "at the same time or within a
short time interval" are drained as one batch, candidates are probed
(unavailable devices excluded), costs estimated from probed status, the
configured scheduling algorithm assigns requests to devices, and
per-device executors service their queues under device locks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
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
from repro.actions.request import ActionRequest, RequestState
from repro.comm.layer import CommunicationLayer
from repro.comm.status_cache import DeviceStatusCache
from repro.cost.model import CostModel
from repro.devices.base import Device
from repro.devices.health import DeviceHealthTracker
from repro.plan.action_op import SharedActionOperator
from repro.scheduling import (
    HAVE_NUMPY,
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
from repro.obs.spans import NULL_OBS, Observability, SpanContext
from repro.overload.plane import OverloadControlPlane
from repro.overload.shedding import REASON_DEADLINE
from repro.runtime import Runtime
from repro.sim import Event
from repro.sim.rng import component_seed
from repro.sync.locks import DeviceLockManager, LockToken
from repro.core.config import EngineConfig, RetryPolicy

#: Factories of the five evaluated algorithms, keyed by config name.
SCHEDULER_FACTORIES = {
    "LERFA+SRFE": LerfaSrfeScheduler,
    "SRFAE": SrfaeScheduler,
    "LS": ListScheduler,
    "SA": SimulatedAnnealingScheduler,
    "RANDOM": RandomScheduler,
}


#: Smallest batch the numpy column kernel is used for; shorter batches
#: take the scalar walk. The kernel pays one numpy call per device
#: column whatever the column's length, so it only wins once a column
#: holds enough requests. Measured with SRFAE on
#: ``bench_perf_regression.engine_oracle_problem(n, m)`` (this adapter,
#: min of 5-15 runs, schedules equal), scalar time / kernel time:
#:
#:   n requests     1     2     3     4     8     12    24
#:   m = 40       0.40  0.65  0.89  1.26  1.94  3.04  3.89
#:   m = 200      0.31  1.00  0.53  1.22  2.24  3.05  2.98
#:
#: Both sides are exercised by ``benchmarks/e2e``: ``mixed_faulty``
#: schedules batches of mean size 1.7, ``dispatch_heavy`` of 10.5.
KERNEL_MIN_REQUESTS = 4


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

        Declines (scalar fallback) without numpy, for a batch below
        :data:`KERNEL_MIN_REQUESTS`, or when any device in the problem
        lacks a registered block resolver for this action.
        """
        if not HAVE_NUMPY or len(problem.requests) < KERNEL_MIN_REQUESTS:
            return None
        device_types = {self._devices[device_id].device_type
                        for device_id in problem.device_ids}
        if not all(self._cost_model.supports_block(self._action.name,
                                                   device_type)
                   for device_type in device_types):
            return None
        return BlockModelKernel(
            self._cost_model, self._action.name, self._devices,
            [request.payload.arguments for request in problem.requests])


def _service_order(request: ActionRequest) -> Tuple[int, float, float]:
    """Within-device service order under overload control.

    Highest tier first, then tightest deadline, then oldest. The sort
    is stable, so requests tied on all three keep the scheduler's
    completion-time-optimal order.
    """
    deadline = request.deadline if request.deadline is not None \
        else float("inf")
    return (-request.priority, deadline, request.created_at)


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
    #: Fault-tolerance accounting (all zero with the default policy).
    #: Execution attempts made for this batch's requests.
    attempts: int = 0
    #: Same-device retries after transient failures.
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


class Dispatcher:
    """Drains shared action operators and drives execution on devices."""

    def __init__(
        self,
        env: Runtime,
        comm: CommunicationLayer,
        cost_model: CostModel,
        locks: DeviceLockManager,
        config: EngineConfig,
        scheduler: Optional[Scheduler] = None,
        tracer: Optional["EngineTracer"] = None,
        health: Optional[DeviceHealthTracker] = None,
        obs: Optional[Observability] = None,
        status_cache: Optional[DeviceStatusCache] = None,
        overload: Optional[OverloadControlPlane] = None,
    ) -> None:
        from repro.core.tracing import EngineTracer
        self.env = env
        self.comm = comm
        self.cost_model = cost_model
        self.locks = locks
        self.config = config
        #: Metrics + spans (the shared disabled instance by default).
        self.obs = obs if obs is not None else NULL_OBS
        #: Per-device circuit breakers (None = health tracking off).
        self.health = health
        #: TTL device-status cache (None = every batch probes every
        #: candidate, as Section 4 prescribes).
        self.status_cache = status_cache
        # Note: an empty tracer is falsy (it has __len__), so test
        # identity, not truthiness.
        self.tracer = tracer if tracer is not None else EngineTracer()
        if scheduler is None:
            factory = SCHEDULER_FACTORIES[config.scheduler]
            scheduler = factory(config.scheduler_seed, vectorize=HAVE_NUMPY)
        self.scheduler = scheduler
        self._operators: Dict[str, SharedActionOperator] = {}
        #: The overload-control plane (None = overload control off, the
        #: pre-overload behaviour: unbounded queues, no admission, no
        #: shedding).
        self.overload = overload
        if overload is not None:
            overload.bind(
                operators=lambda: list(self._operators.values()),
                shed=self.shed_request)
        self._wakeup: Optional[Event] = None
        self._running = False
        #: Deterministic jitter stream for retry backoff, derived from
        #: the engine seed so fault-tolerant runs replay exactly.
        self._retry_rng = random.Random(
            component_seed(config.scheduler_seed, "dispatcher:retry-jitter"))
        #: All requests that went through dispatch, in completion order.
        self.completed: List[ActionRequest] = []
        self.reports: List[DispatchReport] = []
        #: Running outcome counters, so statistics() is O(1) instead of
        #: rescanning `completed` on every call.
        self.serviced_total = 0
        self.failed_total = 0
        #: Fault-tolerance counters (all stay zero with retries off).
        self.attempts_total = 0
        self.retries_total = 0
        self.failovers_total = 0
        #: Overload counter (stays zero with overload control off).
        self.shed_total = 0

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

    def shed_request(self, request: ActionRequest, reason: str) -> None:
        """Uniform shed accounting for every drop path.

        Deadline expiry, pressure shedding, queue eviction and
        backpressure on failover re-queue all land here: the request is
        marked SHED, enters the completion log, and is traced and
        counted once — no path leaks dropped work into pending counts.
        """
        request.mark_shed(self.env.now, reason)
        self.completed.append(request)
        self.shed_total += 1
        self.tracer.record(
            self.env.now, "request_shed", request=request.request_id,
            action=request.action_name, query=request.query_id,
            priority=request.priority, reason=reason)
        if self.overload is not None:
            self.overload.note_shed(request, reason)

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
            if self.config.batch_window > 0:
                yield self.env.timeout(self.config.batch_window)
            yield from self.dispatch_pending()

    def dispatch_pending(self) -> Generator[Any, Any, List[DispatchReport]]:
        """Drain every operator and dispatch its batch. Synchronous
        callers (tests, benchmarks) may drive this directly instead of
        running the loop.

        Every operator is drained before anything is dispatched, from a
        snapshot of the operator table: dispatching a batch can create
        operators mid-drain (failover re-dispatch registers the shared
        operator lazily), which must not mutate the dict under this
        loop. A lone batch runs inline; several run as sibling sim
        processes, so independent actions' probe/schedule/execute
        pipelines overlap. Reports come back in operator order.
        """
        batches = [(operator.action, batch)
                   for operator in list(self._operators.values())
                   for batch in [operator.drain()] if batch]
        if len(batches) == 1:
            return [(yield from self.dispatch_batch(*batches[0]))]
        dispatches = [
            self.env.process(self.dispatch_batch(action, batch)).defuse()
            for action, batch in batches]
        reports = []
        for dispatch in dispatches:
            reports.append((yield dispatch))
        return reports

    # ------------------------------------------------------------------
    # One batch: probe -> schedule -> execute
    # ------------------------------------------------------------------
    def dispatch_batch(
        self, action: ActionDefinition, batch: List[ActionRequest]
    ) -> Generator[Any, Any, DispatchReport]:
        # Detached: the batch runs as its own sim process, interleaved
        # with continuous polls — dynamic nesting would misparent them.
        batch_span = self.obs.span("dispatch.batch", detached=True,
                                   action=action.name, size=len(batch))
        with batch_span:
            report = yield from self._dispatch_batch(action, batch,
                                                     batch_span)
        return report

    def _dispatch_batch(
        self, action: ActionDefinition, batch: List[ActionRequest],
        batch_span: Any,
    ) -> Generator[Any, Any, DispatchReport]:
        batch_started = self.env.now
        policy = self.config.retry
        if self.overload is not None:
            # Shed already-expired requests before spending probe and
            # scheduling work on them — a late answer has no value.
            alive: List[ActionRequest] = []
            for request in batch:
                if request.deadline_expired(batch_started):
                    self.shed_request(request, REASON_DEADLINE)
                else:
                    alive.append(request)
            batch = alive
        if policy.failover:
            # Failover re-dispatch re-enters through the shared
            # operator, so make sure it exists even for direct callers.
            self.operator_for(action)
        devices = self._candidate_devices(batch)

        # Quarantine gate: a device with an open circuit breaker is
        # excluded before probing — it gets no traffic at all until its
        # backoff window expires and a probation probe readmits it.
        quarantined_skipped = 0
        if self.health is not None:
            for device_id in list(devices):
                if not self.health.allow_candidate(device_id):
                    del devices[device_id]
                    quarantined_skipped += 1

        statuses: Dict[str, Dict[str, float]] = {}
        available: set[str] = set()
        if self.config.probing:
            device_list = list(devices.values())
            to_probe = device_list
            if self.status_cache is not None:
                # Fresh cache entries stand in for the probe exchange:
                # the device was seen within its type's TTL, so cost it
                # from that status and skip the wire round-trips.
                to_probe = []
                for device in device_list:
                    cached = self.status_cache.lookup(device)
                    if cached is not None:
                        available.add(device.device_id)
                        statuses[device.device_id] = cached
                    else:
                        to_probe.append(device)
            results = yield from self.comm.prober.probe_all(
                to_probe, parent_span=batch_span)
            for device, result in zip(to_probe, results):
                if result.available:
                    available.add(device.device_id)
                    statuses[device.device_id] = result.status
                    if self.status_cache is not None:
                        self.status_cache.store(device, result.status)
                else:
                    if self.status_cache is not None:
                        self.status_cache.invalidate(
                            device.device_id, reason="probe-failure")
                    self.tracer.record(
                        self.env.now, "probe_failed",
                        device=device.device_id, error=result.error)
        else:
            # Probing disabled: the optimizer has no availability
            # information, so every candidate is assumed reachable and
            # costed from its last-known status; execution on a dead
            # device then fails (the Section 4 ablation).
            for device_id, device in devices.items():
                available.add(device_id)
                statuses[device_id] = device.physical_status()

        schedulable: List[ActionRequest] = []
        usable: Dict[str, Tuple[str, ...]] = {}
        unschedulable = 0
        failed_over = 0
        for request in batch:
            request.dispatches += 1
            candidates = tuple(
                device_id for device_id in request.candidates
                if device_id in available)
            if candidates:
                if policy.failover:
                    # Keep the full candidate set on the request: a
                    # device that is merely down this batch may service
                    # the request after a failover re-dispatch.
                    usable[request.request_id] = candidates
                else:
                    request.candidates = candidates
                schedulable.append(request)
            elif self._requeue_for_failover(request, None,
                                            "no available candidate"):
                # Backpressure on the re-queue sheds instead (handled
                # inside _requeue_for_failover); only a still-pending
                # request counts as failed over.
                if request.state is RequestState.PENDING:
                    failed_over += 1
            else:
                request.mark_failed(self.env.now, "no available candidate")
                self.completed.append(request)
                self.failed_total += 1
                unschedulable += 1

        scheduling_seconds = 0.0
        cache_stats = None
        serviced = failed = attempts = retries = 0
        scheduler = self.scheduler
        if schedulable:
            problem = Problem(
                requests=tuple(
                    SchedRequest(request_id=r.request_id,
                                 candidates=(usable[r.request_id]
                                             if policy.failover
                                             else r.candidates),
                                 payload=r)
                    for r in schedulable),
                device_ids=tuple(device_id for device_id in devices
                                 if device_id in available),
                cost_model=_ActionCostAdapter(self.cost_model, action,
                                              devices, statuses),
                label=f"batch:{action.name}@{batch_started}",
            )
            with self.obs.span(
                    "dispatch.schedule",
                    parent=batch_span if isinstance(batch_span, SpanContext)
                    else None,
                    algorithm=scheduler.name,
                    size=len(schedulable)):
                schedule = scheduler.schedule(problem)
            scheduling_seconds = schedule.scheduling_seconds
            # Read now, and count attempts from this batch's own
            # requests: another action's batch may schedule and execute
            # while this one waits on its executions below.
            cache_stats = scheduler.last_cache_stats
            attempts_before = [request.attempts for request in schedulable]
            for request in schedulable:
                request.mark_assigned(schedule.device_of(request.request_id))

            by_id = {r.request_id: r for r in schedulable}
            executions = []
            if self.config.locking:
                for device_id, queue in schedule.assignments.items():
                    if not queue:
                        continue
                    requests = [by_id[request_id] for request_id in queue]
                    if self.overload is not None:
                        # Service high tiers first within each device
                        # queue (stable, so the scheduler's order is
                        # kept within a tier) — under pressure the
                        # work most worth doing completes first.
                        requests.sort(key=_service_order)
                    executions.append(self.env.process(
                        self._service_queue(
                            action, devices[device_id], requests,
                            batch_span)
                    ).defuse())
            else:
                # Unsynchronized: every request fires immediately and
                # concurrently — the Section 6.2 interference mode.
                for device_id, queue in schedule.assignments.items():
                    for request_id in queue:
                        executions.append(self.env.process(
                            self._service_unlocked(
                                action, devices[device_id],
                                by_id[request_id], batch_span)).defuse())
            for execution in executions:
                yield execution
            # A request executes at most once per batch, so each attempt
            # past its first here was a retry.
            made = [request.attempts - before for request, before
                    in zip(schedulable, attempts_before)]
            attempts = sum(made)
            retries = attempts - sum(1 for count in made if count)
            for request in schedulable:
                if request.state is RequestState.SERVICED:
                    serviced += 1
                elif request.state is RequestState.PENDING:
                    # Requeued for failover: alive, completes later.
                    failed_over += 1
                    continue
                elif request.state is RequestState.SHED:
                    # shed_request already completed and counted it.
                    continue
                else:
                    failed += 1
                self.completed.append(request)
            self.serviced_total += serviced
            self.failed_total += failed

        report = DispatchReport(
            action_name=action.name,
            batch_size=len(batch),
            scheduled=len(schedulable),
            unschedulable=unschedulable,
            serviced=serviced,
            failed=failed,
            scheduling_seconds=scheduling_seconds,
            batch_started_at=batch_started,
            batch_finished_at=self.env.now,
            cache_stats=cache_stats,
            attempts=attempts,
            retries=retries,
            failed_over=failed_over,
            quarantined_skipped=quarantined_skipped,
        )
        self.reports.append(report)
        obs = self.obs
        if obs.enabled:
            obs.inc("dispatch.batches", action=action.name)
            obs.observe("dispatch.batch_size", len(batch),
                        action=action.name)
            obs.inc("dispatch.requests_serviced", serviced)
            obs.inc("dispatch.requests_failed", failed + unschedulable)
            obs.inc("dispatch.requests_failed_over", failed_over)
            obs.inc("dispatch.quarantined_skipped", quarantined_skipped)
            obs.observe("dispatch.makespan_seconds",
                        report.makespan_seconds)
            obs.observe("dispatch.scheduling_wallclock_seconds",
                        scheduling_seconds,
                        algorithm=scheduler.name)
        self.tracer.record(
            self.env.now, "batch_dispatched", action=action.name,
            size=len(batch), serviced=serviced,
            failed=failed + unschedulable)
        return report

    def _candidate_devices(
        self, batch: List[ActionRequest]
    ) -> Dict[str, Device]:
        devices: Dict[str, Device] = {}
        for request in batch:
            for device_id in request.candidates:
                if device_id not in devices:
                    devices[device_id] = self.comm.registry.get(device_id)
        return devices

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _service_queue(
        self, action: ActionDefinition, device: Device,
        queue: List[ActionRequest], batch_span: Any = None,
    ) -> Generator[Any, Any, None]:
        """Service one device's queue in order, under its lock."""
        lease = self.config.lock_lease_seconds
        for index, request in enumerate(queue):
            if self.overload is not None and \
                    request.deadline_expired(self.env.now):
                # Earlier work on this device already blew the deadline:
                # shed instead of executing a worthless late action.
                self.shed_request(request, REASON_DEADLINE)
                continue
            token = LockToken(request.request_id)
            yield from self.locks.acquire(device.device_id, token,
                                          lease_seconds=lease)
            try:
                yield from self._execute_one(action, device, request,
                                             batch_span)
            finally:
                self.locks.release(device.device_id, token)
            if self.config.retry.failover and not device.reachable:
                # The device died: drain the rest of its queue back to
                # the dispatcher for reassignment instead of grinding
                # through attempts that are doomed to the same fate.
                for waiting in queue[index + 1:]:
                    if self.overload is not None and \
                            waiting.deadline_expired(self.env.now):
                        # The drain runs the same shed accounting as
                        # deadline eviction: a request that expired
                        # while queued behind the dead device is shed,
                        # not failed or leaked back into pending.
                        self.shed_request(waiting, REASON_DEADLINE)
                        continue
                    if not self._requeue_for_failover(
                            waiting, device.device_id,
                            "queue drained after device failure"):
                        waiting.mark_failed(
                            self.env.now,
                            f"device {device.device_id!r} failed while "
                            f"request was queued")
                        self.tracer.record(
                            self.env.now, "request_failed",
                            request=waiting.request_id,
                            action=waiting.action_name,
                            device=device.device_id,
                            query=waiting.query_id,
                            reason=waiting.failure_reason)
                break

    def _service_unlocked(
        self, action: ActionDefinition, device: Device,
        request: ActionRequest, batch_span: Any = None,
    ) -> Generator[Any, Any, None]:
        yield from self._execute_one(action, device, request, batch_span)

    def _execute_one(
        self, action: ActionDefinition, device: Device,
        request: ActionRequest, batch_span: Any = None,
    ) -> Generator[Any, Any, None]:
        """Run one request, retrying transient failures per the policy.

        With the default policy this is a single attempt and behaves
        exactly like the pre-fault-tolerance dispatcher. On a transient
        failure with attempts left, the request retries on its assigned
        device after an exponential, deterministically jittered backoff;
        once attempts are exhausted, failover (if enabled) re-queues the
        request for the next batch minus the failed device.
        """
        policy = self.config.retry
        execute_span = self.obs.span(
            "dispatch.execute",
            parent=batch_span if isinstance(batch_span, SpanContext)
            else None,
            detached=True,
            request=request.request_id, device=device.device_id)
        with execute_span:
            try:
                yield from self._execute_attempts(action, device, request,
                                                  policy)
            finally:
                if self.status_cache is not None:
                    # Executing on the device changed its physical
                    # status (position, battery, queue depth): the
                    # cached snapshot is stale for the next batch
                    # whatever the outcome.
                    self.status_cache.invalidate(device.device_id,
                                                 reason="execution")
        if request.state in (RequestState.PENDING, RequestState.SHED):
            # PENDING: requeued for failover — completion is traced by
            # the batch that finally services (or fails) it. SHED: the
            # failover re-queue hit backpressure and shed_request
            # already traced and completed it.
            return
        kind = ("request_serviced" if request.state is RequestState.SERVICED
                else "request_failed")
        self.tracer.record(
            self.env.now, kind, request=request.request_id,
            action=request.action_name, device=device.device_id,
            query=request.query_id, reason=request.failure_reason)

    def _execute_attempts(
        self, action: ActionDefinition, device: Device,
        request: ActionRequest, policy: RetryPolicy,
    ) -> Generator[Any, Any, None]:
        """The attempt/retry/failover loop of one request execution."""
        attempt = 0
        while True:
            attempt += 1
            request.attempts += 1
            self.attempts_total += 1
            self.obs.inc("dispatch.attempts", device=device.device_id)
            try:
                result = yield from action.execute(device,
                                                   request.arguments)
            except ActionFailedError as exc:
                transient = is_transient(exc)
                mark_reason = exc.reason
            except (DeviceError, CommunicationError, QueryError) as exc:
                transient = is_transient(exc)
                mark_reason = str(exc)
            else:
                if self.health is not None:
                    self.health.record_success(device.device_id)
                request.mark_serviced(self.env.now, result)
                return
            if transient and self.health is not None:
                self.health.record_failure(device.device_id,
                                           reason=mark_reason)
            if transient and attempt < policy.max_attempts:
                self.retries_total += 1
                self.obs.inc("dispatch.retries",
                             device=device.device_id)
                backoff = policy.backoff_seconds(attempt,
                                                 self._retry_rng)
                self.tracer.record(
                    self.env.now, "request_retry",
                    request=request.request_id,
                    device=device.device_id,
                    attempt=attempt, backoff=backoff,
                    reason=mark_reason)
                if backoff > 0:
                    yield self.env.timeout(backoff)
                continue
            if transient and self._requeue_for_failover(
                    request, device.device_id, mark_reason):
                return
            request.mark_failed(self.env.now, mark_reason)
            return

    def _requeue_for_failover(
        self, request: ActionRequest, failed_device: Optional[str],
        reason: str,
    ) -> bool:
        """Re-enter ``request`` into its operator for the next batch.

        The failed device is blacklisted from the candidate set so the
        scheduler reassigns the request to a surviving candidate.
        Returns False (caller must fail the request) when failover is
        off, the dispatch cap is reached, or no candidate would remain.
        """
        policy = self.config.retry
        if not policy.failover:
            return False
        if request.dispatches >= policy.max_dispatches:
            return False
        surviving = tuple(device_id for device_id in request.candidates
                          if device_id != failed_device)
        if not surviving:
            return False
        operator = self._operators.get(request.action_name)
        if operator is None:  # pragma: no cover - defensive
            return False
        request.mark_requeued(failed_device)
        try:
            operator.submit(request)
        except QueueFullError:
            # Bounded queue refused the re-entry: the request was
            # already admitted once, so this is a shed (accounted,
            # completed), not a silent failure. Returning True tells
            # the caller the request needs no further handling.
            self.shed_request(request, "queue-full")
            return True
        self.failovers_total += 1
        self.obs.inc("dispatch.failovers")
        self.tracer.record(
            self.env.now, "request_failed_over",
            request=request.request_id, failed_device=failed_device,
            surviving=len(surviving), dispatches=request.dispatches,
            reason=reason)
        return True
