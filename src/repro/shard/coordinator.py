"""The sharded fleet coordinator.

One :class:`~repro.core.engine.AortaEngine` owns every device, query
and scheduling decision of its partition. :class:`ShardedEngine`
scales the system past a single scheduler loop by partitioning the
device space across N such engines — each shard on its own runtime
instance with its own seeded RNG substreams — and keeping only routing
and aggregation at the coordinator:

* **Placement** (:mod:`repro.shard.placement`) decides which shard
  owns a device; admission, stimulus injection and request routing all
  follow it.
* **AQ fan-out**: a continuous query registers on every shard; each
  shard's executor detects events and emits requests over its local
  devices only, so a fleet-wide standing query costs each shard only
  its own partition's candidate space.
* **Batch splitting**: an externally submitted action request is
  routed to the shard owning the plurality of its candidate devices,
  with its candidate set restricted to that shard's partition;
  completions merge back at the coordinator.
* **Aggregation**: fleet metrics merge per-shard registries through
  :meth:`~repro.obs.metrics.MetricsRegistry.merge` — optionally
  stamped with ``shard=<i>`` labels via
  :meth:`~repro.obs.metrics.MetricsRegistry.relabeled` — and fleet
  statistics are the engine's own view
  (:func:`~repro.core.engine.statistics_view`) over that merge plus
  the shards' folded live levels.
* **Fleet capacity**: with overload control on, every shard admits
  against its own :class:`~repro.overload.admission.CapacityLedger`,
  synced at every barrier to the fleet's: admission is per-shard (rate
  limits, queues) but capacity accounting is fleet-wide.

* **Time**: :func:`run_lockstep` is the one round loop. It advances
  every shard to a deadline and meets them at a barrier, which is where
  the fleet ledger syncs.

The 1-shard fleet is byte-identical to a plain ``AortaEngine``: its one
engine is built like one (same raw seed, same config), and every
operation either delegates to it or returns what it would — the
equivalence suite in ``tests/shard`` pins this with golden traces.

**One handle per shard.** Every method below reaches a shard through
its :class:`~repro.shard.parallel.ShardHandle` and never asks where the
shard is hosted: in this process by default (the handle is the shard
itself), in its own worker with ``EngineConfig(parallel=True)``
(:mod:`repro.shard.parallel`), where the shards of a round compute
concurrently between deterministic barriers. What differs is what a
handle can hand back: per-shard *objects* (``fleet.shard(i)``,
``fleet.device(...)``, registration handles) are process-local, so a
worker's handle refuses or returns ``None`` for them; per-shard *data*
flows through ``shard_statistics()`` / ``shard_dumps()`` /
``metrics()`` on every fleet. Workers are opt-in, forced off on 1-shard
fleets, and byte-identical to the in-process fleet
(``tests/shard/test_parallel.py``).
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ShardingError, SimulationError
from repro.actions.request import ActionRequest
from repro.core.config import EngineConfig
from repro.core.engine import AortaEngine, statistics_view
from repro.devices.base import Device
from repro.obs.metrics import MetricsRegistry
from repro.overload import CapacityLedger
from repro.query.ast import ExplainStatement, SelectQuery
from repro.query.parser import parse
from repro.shard.parallel import (
    RoundResult,
    ShardHandle,
    ShardHost,
    ShardWorker,
)
from repro.shard.placement import HashPlacement, PlacementPolicy
from repro.sim import Environment
from repro.sim.rng import derive_seed

#: A device constructor bound to a shard's runtime at admission time.
#: The coordinator picks the owning shard first, then calls the
#: factory with that shard's runtime — devices bind their runtime at
#: construction, so they cannot be built before placement is known.
DeviceFactory = Callable[[Environment], Device]

#: Lockstep bound of a ledger-coupled fleet (overload on, more than one
#: shard): no shard's clock leads the slowest by more than this many
#: runtime seconds, which bounds how far apart the clocks are at which
#: shards admit, and is the period at which their ledgers sync.
SHARD_QUANTUM = 1.0


def run_lockstep(
    handles: Sequence[ShardHandle],
    until: float,
    *,
    quantum: Optional[float],
    on_round: Optional[Callable[[float, List[RoundResult]], None]] = None,
) -> float:
    """Advance every shard to ``until``, one barriered round at a time.

    Shards own disjoint devices, so their event streams never interact;
    what they can share while a run is in progress is the fleet's
    capacity commitments, which each shard's admission reads from its
    own ledger as of the last barrier. Round deadlines step by
    ``quantum`` from the slowest shard's clock, so no shard is ever
    more than one quantum ahead of another and the ledgers sync at
    every barrier; ``quantum=None`` is one round straight to ``until``
    for shards that share nothing. At least one round opens, so a run
    to the instant the fleet is at drains the events due then, as
    ``Environment.run`` does; a shard already past a deadline skips
    that round itself.

    Each round submits ``begin_round`` to every shard before collecting
    ``finish_round`` from any — workers compute their rounds
    concurrently — and collects in **shard order**, never arrival
    order, so everything downstream of the barrier is independent of
    scheduling noise. If a shard fails mid-round, the loop still
    drains every other shard's reply (keeping worker pipes in lockstep
    for teardown), then raises the lowest-indexed failure.
    ``on_round(wall_seconds, results)`` runs after each successful
    round. Returns ``until``.
    """
    # Written so that NaN fails the checks: it compares false.
    if quantum is not None and not 0 < quantum < math.inf:
        raise SimulationError(f"lockstep quantum must be positive and "
                              f"finite, got {quantum}")
    if not handles:
        raise SimulationError("a lockstep fleet needs at least one shard")
    deadline = min(handle.call("now") for handle in handles)
    if not until >= deadline:
        raise SimulationError(
            f"cannot run lockstep to t={until}: it is NaN or a shard "
            f"is already at t={deadline}")
    while True:
        deadline = until if quantum is None \
            else min(deadline + quantum, until)
        started = time.perf_counter()
        for handle in handles:
            handle.begin_round(deadline)
        #: Per shard, its RoundResult or what finish_round raised.
        outcomes: List[Any] = []
        for handle in handles:
            try:
                outcomes.append(handle.finish_round())
            except BaseException as error:  # noqa: BLE001 - re-raised below
                outcomes.append(error)
        wall_seconds = time.perf_counter() - started
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        if on_round is not None:
            on_round(wall_seconds, outcomes)
        if deadline >= until:
            return until


def _fold_levels(shards: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One fleet's live levels from its shards' (``live_levels()``).

    Shards own disjoint devices, so levels add — except the clock, the
    furthest shard's, and each operator's peak queue depth, the worst
    shard's (peaks on different shards never shared a queue); shedding
    is active if any shard sheds.
    """
    fleet: Dict[str, Any] = {}
    for levels in shards:
        for key, value in levels.items():
            if key not in fleet:
                fleet[key] = value
            elif key == "virtual_time":
                fleet[key] = max(fleet[key], value)
            elif key == "overload_shedding_active":
                fleet[key] = fleet[key] or value
            elif key == "overload_peak_queue_depth":
                peaks = fleet[key] = dict(fleet[key])
                for name, depth in value.items():
                    peaks[name] = max(peaks.get(name, depth), depth)
            else:
                fleet[key] += value
    return fleet


def _merge_query_reports(
        reports: List[List[Dict[str, Any]]]) -> List[Dict[str, Any]]:
    """Merge per-shard query reports by query name (AQ fan-out).

    Counters sum, a query is ``enabled`` if any shard has it enabled,
    and descriptive fields come from the first shard reporting the
    query. Order follows shard 0's registration order, with queries
    seen only on later shards appended in encounter order. The first
    entry seen for a name becomes the fleet's entry, in place: every
    report is built fresh for the call that asked for it.
    """
    merged: Dict[str, Dict[str, Any]] = {}
    counter_keys = ("events_detected", "requests_emitted",
                    "requests_rejected", "uncovered_events")
    for report in reports:
        for entry in report:
            name = entry["name"]
            fleet_entry = merged.get(name)
            if fleet_entry is None:
                merged[name] = entry
                continue
            for key in counter_keys:
                fleet_entry[key] += entry[key]
            if entry["state"] == "enabled":
                fleet_entry["state"] = "enabled"
    return list(merged.values())


class ShardedEngine:
    """N engine shards behind one engine-shaped facade.

    Typical use::

        config = EngineConfig(shards=4)
        fleet = ShardedEngine(config=config, seed=0)
        fleet.add_device("cam1", lambda env: PanTiltZoomCamera(
            env, "cam1", Point(0, 0)))
        fleet.execute(CREATE_AQ_SQL)     # registers on every shard
        fleet.start()
        fleet.run(until=600.0)           # every shard's clock to 600
        fleet.statistics()               # fleet-wide aggregate
    """

    def __init__(
        self,
        *,
        config: Optional[EngineConfig] = None,
        placement: Optional[PlacementPolicy] = None,
        seed: int = 0,
    ) -> None:
        self.config = config or EngineConfig()
        n = self.config.shards
        self.placement: PlacementPolicy = (
            placement if placement is not None else HashPlacement(n))
        if self.placement.n_shards != n:
            raise ShardingError(
                f"placement covers {self.placement.n_shards} shard(s) "
                f"but config.shards is {n}")
        self.seed = seed
        #: Whether this fleet hosts its shards in workers. Forced off
        #: on 1-shard fleets: a 1-shard fleet must stay byte-identical
        #: to a plain engine, reachable as ``shard(0)``, and one shard
        #: has nothing to parallelize.
        self.parallel: bool = self.config.parallel and n > 1
        #: Devices admitted through the facade — the fleet size capacity
        #: admission budgets against.
        self._devices = 0
        #: ``_devices`` at the shards' last ledger sync.
        self._synced_devices: Optional[int] = None
        #: ``shard.round.*`` wall-clock series of a worker fleet (kept
        #: out of shard registries: dumps stay transport-agnostic).
        self.round_registry = MetricsRegistry()
        #: One handle per shard, in shard order.
        self.handles: List[ShardHandle] = []
        #: The fleet's capacity commitments, folded from every shard's
        #: rounds and synced back to their ledgers at each barrier —
        #: the one thing that couples shards while ``run()`` is in
        #: progress, so its presence is what makes ``run()`` step in
        #: rounds. ``None`` with overload control off or a single shard.
        self.ledger: Optional[CapacityLedger] = None
        if self.config.overload and n > 1:
            self.ledger = CapacityLedger(fleet_size=lambda: self._devices)
        shard_config = replace(self.config, shards=1, parallel=False)
        try:
            for index in range(n):
                # The 1-shard fleet reuses the raw master seed so it is
                # byte-identical to a plain engine; a multi-shard fleet
                # gives each shard an independent derived substream.
                shard_seed = seed if n == 1 \
                    else derive_seed(seed, f"shard:{index}")
                if self.parallel:
                    self.handles.append(ShardWorker(
                        index, shard_config, shard_seed,
                        self.config.parallel_backend))
                else:
                    self.handles.append(ShardHost(shard_config, shard_seed))
            # Every worker is already spawning and importing; wait only
            # now, so start-up costs one worker's, not their sum.
            for handle in self.handles:
                if isinstance(handle, ShardWorker):
                    handle.await_ready()
        except BaseException:
            self.close()
            raise
        #: The engines hosted in this process, in shard order (empty on
        #: a worker fleet — those engines live inside the workers).
        self.shards: List[AortaEngine] = [] if self.parallel else [
            handle.engine for handle in self.handles]
        self._started = False

    # ------------------------------------------------------------------
    # Reaching shards
    # ------------------------------------------------------------------
    def _call(self, index: int, op: str, *args: Any) -> Any:
        handle = self.handles[index]
        try:
            return handle.call(op, *args)
        except ShardingError:
            if handle.dead:
                # A dead handle strands a partition: reap the rest so a
                # failed fleet never leaks workers.
                self.close()
            raise

    def _call_all(self, op: str, *args: Any) -> List[Any]:
        return [self._call(index, op, *args)
                for index in range(len(self.handles))]

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.config.shards

    def shard(self, index: int) -> AortaEngine:
        """The engine of shard ``index`` (a worker's handle refuses)."""
        if not 0 <= index < self.n_shards:
            raise ShardingError(
                f"no shard {index}; the fleet has shards "
                f"0..{self.n_shards - 1}")
        return self.handles[index].engine

    def shard_of(self, device_id: str) -> int:
        """Index of the shard owning ``device_id`` (placement lookup)."""
        return self.placement.shard_of(device_id)

    # ------------------------------------------------------------------
    # Devices
    # ------------------------------------------------------------------
    def add_device(self, device_id: str,
                   factory: DeviceFactory) -> Optional[Device]:
        """Admit one device to the shard its placement names.

        The factory receives the owning shard's runtime and must build
        a device with exactly ``device_id`` — a mismatch would strand
        the device on a shard routing will never look at, so it is
        refused loudly. On a worker fleet the factory is replayed
        inside the owning worker (it must pickle — see
        :class:`~repro.shard.parallel.DeviceSpec`) and the built device
        stays there: the return value is ``None``.
        """
        device = self._call(self.placement.shard_of(device_id),
                            "add_device", device_id, factory)
        self._devices += 1
        return device

    def device(self, device_id: str) -> Device:
        """Look up an admitted device on its owning shard."""
        shard = self.shard(self.placement.shard_of(device_id))
        return shard.comm.registry.get(device_id)

    def inject(self, device_id: str, stimulus: Any) -> None:
        """Deliver a sensor stimulus to its owning shard's device."""
        self._call(self.placement.shard_of(device_id), "inject",
                   device_id, stimulus)

    # ------------------------------------------------------------------
    # The declarative interface
    # ------------------------------------------------------------------
    def execute(self, sql: str) -> Any:
        """Execute one statement against the fleet.

        CREATE ACTION / CREATE AQ / DROP AQ fan out to every shard
        (returning the per-shard results as a list for the CREATE
        forms, or ``None`` where the registration handles stay inside
        workers); EXPLAIN describes shard 0's plan (all shards plan
        identically). A snapshot SELECT needs one engine to own the
        whole candidate space, so it is only legal on a 1-shard fleet —
        on larger fleets, run it against a specific ``fleet.shard(i)``.
        """
        if self.n_shards == 1:
            return self.shards[0].execute(sql)
        statement = parse(sql)
        if isinstance(statement, SelectQuery):
            raise ShardingError(
                "snapshot SELECT spans one engine's device space; on a "
                f"{self.n_shards}-shard fleet run it against a single "
                "shard (fleet.shard(i).execute(...))")
        if isinstance(statement, ExplainStatement):
            return self._call(0, "execute", sql)
        results = self._call_all("execute", sql)
        return None if all(result is None for result in results) else results

    def create_aq(self, sql: str, *, priority: int = 1,
                  deadline_seconds: Optional[float] = None) -> Any:
        """CREATE AQ with a service class, registered on every shard.

        All-or-nothing: if any shard refuses the registration (say, it
        already holds a query of that name), the query is dropped from
        the shards that already accepted it before the error
        propagates — a standing query
        either watches the whole fleet or none of it. Returns the
        per-shard registrations (``None`` where they stay inside
        workers).
        """
        if self.n_shards == 1:
            return self.shards[0].create_aq(
                sql, priority=priority, deadline_seconds=deadline_seconds)
        registered: List[Any] = []
        try:
            for index in range(self.n_shards):
                registered.append(self._call(
                    index, "create_aq", sql, priority, deadline_seconds))
        except Exception:
            # Shard 0 took the statement, so it parses as a CREATE AQ.
            for index in range(len(registered)):
                self._call(index, "drop_aq", parse(sql).name)
            raise
        return None if all(query is None for query in registered) \
            else registered

    def install_action_code(self, library_path: str,
                            implementation: Any) -> None:
        """Install a CREATE ACTION executable on every shard.

        On a worker fleet the implementation crosses worker pipes, so
        it must be a picklable callable (a module-level function, not a
        closure).
        """
        self._call_all("install_code", library_path, implementation)

    def install_action_profile(self, profile_path: str, profile: Any,
                               resolver: Any, **kwargs: Any) -> None:
        """Install a CREATE ACTION profile on every shard."""
        self._call_all("install_profile", profile_path, profile,
                       resolver, kwargs)

    # ------------------------------------------------------------------
    # Request routing (cross-shard batch splitting)
    # ------------------------------------------------------------------
    def route(self, request: ActionRequest) -> Tuple[int, Tuple[str, ...]]:
        """The owning shard of one request, by candidate plurality.

        Returns ``(shard_index, owned_candidates)`` where the index is
        the shard owning the most of the request's candidate devices
        (ties break to the lowest index, so routing is deterministic)
        and the tuple is the request's candidates restricted to that
        shard's partition.
        """
        if not request.candidates:
            raise ShardingError(
                f"request {request.request_id!r} has no candidate "
                f"devices to route by")
        owners: Dict[int, List[str]] = {}
        for device_id in request.candidates:
            owners.setdefault(
                self.placement.shard_of(device_id), []).append(device_id)
        index = max(sorted(owners), key=lambda i: len(owners[i]))
        return index, tuple(owners[index])

    def submit(self, request: ActionRequest) -> int:
        """Route one external request to its owning shard's operator.

        The request's candidate set is narrowed to the owning shard's
        devices before submission (a shard cannot schedule onto devices
        it does not own). Returns the shard index the request landed
        on; with overload control on, the shard's admission may still
        mark it REJECTED (same contract as ``Dispatcher.submit``). A
        worker receives a pickled copy — the caller's object stays
        inert and completions flow back through ``completed_requests``.
        """
        index, owned = self.route(request)
        request.candidates = owned
        self._sync_stale_ledger()
        self._call(index, "submit", request)
        return index

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch every shard's executor, dispatcher and shedder."""
        if self._started:
            raise ShardingError("fleet already started")
        self._started = True
        self._call_all("start")
        self._sync_stale_ledger()

    def run(self, until: float) -> float:
        """Advance the fleet to ``until``.

        Shards that share nothing — no fleet ledger, which includes
        every 1-shard fleet — run one round: every shard straight to
        ``until``, concurrently across workers, one after another in
        this process. Shards coupled by the ledger advance in lockstep
        rounds of :data:`SHARD_QUANTUM` runtime seconds instead, so
        capacity admission never sees clocks further apart than that,
        and every barrier folds each shard's commits into ``ledger``
        and syncs the shards' ledgers to it (DESIGN.md decision 30).
        Either way per-shard ``engine.run`` spans wrap the whole
        coordinated run. As on a plain engine, the spans close on every
        path out and ``engine.runs`` counts completed runs only.
        """
        self._sync_stale_ledger()
        self._call_all("run_begin")
        completed = False
        try:
            stopped = run_lockstep(
                self.handles, until,
                quantum=None if self.ledger is None else SHARD_QUANTUM,
                on_round=self._after_round)
            completed = True
        except ShardingError:
            if any(handle.dead for handle in self.handles):
                self.close()
            raise
        finally:
            for index, handle in enumerate(self.handles):
                if not handle.dead:
                    self._call(index, "run_end", completed)
        return stopped

    def _after_round(self, wall_seconds: float,
                     results: List[RoundResult]) -> None:
        if self.parallel:
            self._record_round(wall_seconds, results)
        if self.ledger is not None:
            for result in results:
                self.ledger.fold(result.commits)
            self._sync_ledger(self.ledger.committed())

    def _sync_ledger(self,
                     committed: Optional[Dict[int, float]] = None) -> None:
        """Hand every shard the fleet's device count and, at a barrier,
        its commitments (between barriers they have not moved)."""
        self._call_all("sync_ledger", self._devices, committed)
        self._synced_devices = self._devices

    def _sync_stale_ledger(self) -> None:
        """Sync the device count before admitting if devices joined."""
        if self.ledger is not None \
                and self._synced_devices != self._devices:
            self._sync_ledger()

    def _record_round(self, wall_seconds: float,
                      results: List[RoundResult]) -> None:
        registry = self.round_registry
        registry.counter("shard.round.count").inc()
        registry.counter("shard.round.wallclock_seconds").inc(
            wall_seconds)
        registry.gauge("shard.round.last_wallclock_seconds").set(
            wall_seconds)
        for index, result in enumerate(results):
            registry.counter("shard.round.busy_wallclock_seconds",
                             shard=index).inc(result.busy_seconds)
            registry.counter(
                "shard.round.barrier_wait_wallclock_seconds",
                shard=index).inc(
                    max(0.0, wall_seconds - result.busy_seconds))

    def round_breakdown(self) -> Optional[Dict[str, Any]]:
        """Per-shard busy/barrier-wait wall-clock totals, or ``None``.

        Only a worker fleet has barriers to wait at; an in-process
        fleet returns ``None``. ``barrier_wait_s`` — wall-clock a
        shard's worker sat idle at the barrier while slower shards
        finished their rounds — is the scaling diagnostic: a balanced
        fleet waits near zero, a skewed one serializes on its slowest
        shard.
        """
        if not self.parallel:
            return None
        total = self.round_registry.counter
        return {
            "rounds": int(total("shard.round.count").value),
            "wall_s": round(
                total("shard.round.wallclock_seconds").value, 4),
            "per_shard": [
                {"shard": index,
                 "busy_s": round(total(
                     "shard.round.busy_wallclock_seconds",
                     shard=index).value, 4),
                 "barrier_wait_s": round(total(
                     "shard.round.barrier_wait_wallclock_seconds",
                     shard=index).value, 4)}
                for index in range(self.n_shards)
            ],
        }

    # ------------------------------------------------------------------
    # 1-shard surface (golden-dump compatibility)
    # ------------------------------------------------------------------
    def _single(self, attribute: str) -> AortaEngine:
        if self.n_shards != 1:
            raise ShardingError(
                f"{attribute} is per-shard state on a "
                f"{self.n_shards}-shard fleet; access it via "
                f"fleet.shard(i).{attribute}")
        return self.shards[0]

    @property
    def env(self) -> Environment:
        return self._single("env").env

    @property
    def tracer(self) -> Any:
        return self._single("tracer").tracer

    @property
    def obs(self) -> Any:
        return self._single("obs").obs

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    @property
    def completed_requests(self) -> List[ActionRequest]:
        """Every completed request fleet-wide, merged deterministically.

        One shard returns the engine's own completion log (same list
        object): requests that end at one instant are logged in the
        order they ended, which the merge below would re-sort by id.
        Multiple shards merge by completion time, then request
        id, then owning shard (shard-local auto ids can collide across
        shards), so the order is independent of shard enumeration
        order. From a worker the requests are copies shipped back over
        its pipe.
        """
        if self.n_shards == 1:
            return self.shards[0].completed_requests
        keyed = [
            ((request.completed_at if request.completed_at is not None
              else float("inf"), request.request_id, index), request)
            for index, batch in enumerate(self._call_all("completed"))
            for request in batch]
        keyed.sort(key=lambda pair: pair[0])
        return [request for _key, request in keyed]

    def device_report(self) -> Dict[str, Dict[str, Any]]:
        """Per-device utilization across the fleet (disjoint union)."""
        report: Dict[str, Dict[str, Any]] = {}
        for shard_report in self._call_all("device_report"):
            report.update(shard_report)
        return report

    def statistics(self) -> Dict[str, Any]:
        """A fleet-wide status snapshot.

        One shard returns the engine's own dict. More render the
        engine's view over the shards' merged registries and folded
        live levels, plus a ``shards`` key; per-shard snapshots stay
        available through ``shard_statistics()``.
        """
        if self.n_shards == 1:
            return self.shards[0].statistics()
        return {"shards": self.n_shards,
                **statistics_view(self._merged_metrics(labeled=False),
                                  _fold_levels(self._call_all("levels")))}

    def shard_statistics(self) -> List[Dict[str, Any]]:
        """Each shard's own statistics dict, in shard order."""
        return self._call_all("statistics")

    def query_report(self) -> List[Dict[str, Any]]:
        """Fleet-wide per-query catalog listing.

        Per-shard reports merge by query name (AQ fan-out registers
        every query on every shard; one shard's report merges to
        itself): counters sum, a query is
        ``enabled`` if any shard has it enabled, and descriptive fields
        come from the first shard reporting the query. Order follows
        shard 0's registration order, with queries seen only on later
        shards appended in encounter order.
        """
        return _merge_query_reports(self._call_all("query_report"))

    def _merged_metrics(self, labeled: bool) -> MetricsRegistry:
        merged = MetricsRegistry()
        for index, registry in enumerate(self._call_all("metrics")):
            merged.merge(registry.relabeled(shard=index) if labeled
                         else registry)
        merged.merge(self.round_registry)
        return merged

    def metrics(self) -> Dict[str, Any]:
        """The fleet metric snapshot, merged without shard labels.

        Equals the plain engine's snapshot on a 1-shard fleet; on
        larger fleets, equal-name series from different shards fold
        together (counters/histograms add, gauges max). A worker fleet
        additionally folds in the coordinator's ``shard.round.*``
        wall-clock series (round count, per-round and per-shard
        busy/barrier-wait time).
        """
        return self._merged_metrics(labeled=False).snapshot()

    def shard_labeled_metrics(self) -> Dict[str, Any]:
        """The fleet metric snapshot with ``shard=<i>`` on every series.

        Per-shard registries stay unlabeled (pinning 1-shard golden
        identity); labels are stamped onto copies at render time, so
        the merged snapshot keeps one distinct series per shard. The
        round registry merges as-is — its per-shard series already
        carry shard labels.
        """
        return self._merged_metrics(labeled=True).snapshot()

    def shard_dumps(self) -> List[Dict[str, Any]]:
        """Normalized per-shard dumps, in shard order.

        The reproducibility surface of every fleet: each shard's host
        dumps its own engine where it lives, so a worker fleet is
        compared with the in-process fleet on exactly this value.
        """
        return self._call_all("dump")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release worker processes.

        Idempotent, and a no-op on in-process fleets: everything lives
        in this process and the garbage collector owns it. Worker
        fleets must be closed — or used as a context manager — so
        worker processes never outlive the run.
        """
        for handle in self.handles:
            handle.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
