"""The AortaEngine facade: the whole system behind one object."""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import AortaError, BindingError, QueryError
from repro.actions.action import (
    ActionDefinition,
    ActionImplementation,
    ActionParameter,
)
from repro.actions.builtins import install_builtin_actions
from repro.actions.registry import ActionRegistry
from repro.actions.request import REASON_EVICTED, ActionRequest
from repro.comm.layer import CommunicationLayer
from repro.comm.status_cache import DeviceStatusCache
from repro.cost.model import CostModel, QuantityResolver
from repro.devices.base import Device
from repro.devices.camera import PanTiltZoomCamera
from repro.devices.health import BreakerState, DeviceHealthTracker
from repro.geometry import Point
from repro.network.link import LinkModel
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Observability
from repro.overload import OverloadControlPlane, OverloadPolicy
from repro.plan.planner import Planner, SnapshotPlan
from repro.profiles.action_profile import ActionProfile
from repro.profiles.defaults import register_builtin_types
from repro.query.ast import (
    CreateActionStatement,
    CreateAQStatement,
    DropAQStatement,
    ExplainStatement,
    SelectQuery,
    Statement,
)
from repro.query.catalog import SchemaCatalog
from repro.query.functions import FunctionRegistry, install_standard_functions
from repro.query.parser import parse
from repro.sim import Environment, raise_first_error
from repro.sim.rng import component_seed
from repro.sync.locks import DeviceLockManager
from repro.core.config import EngineConfig
from repro.core.continuous import ContinuousQueryExecutor, RegisteredQuery
from repro.core.dispatcher import Dispatcher


class AortaEngine:
    """A complete Aorta instance over one simulated environment.

    Typical use::

        env = Environment()
        engine = AortaEngine(env)
        engine.add_device(PanTiltZoomCamera(env, "cam1", Point(0, 0)))
        engine.add_device(SensorMote(env, "mote1", Point(5, 5)))
        engine.execute(FIGURE_1_QUERY)   # CREATE AQ snapshot AS SELECT ...
        engine.start()
        engine.run(until=600.0)          # ten virtual minutes
    """

    def __init__(
        self,
        env: Optional[Environment] = None,
        *,
        config: Optional[EngineConfig] = None,
        links: Optional[Dict[str, LinkModel]] = None,
        seed: int = 0,
    ) -> None:
        self.config = config or EngineConfig()
        if self.config.shards != 1:
            raise AortaError(
                f"AortaEngine owns exactly one shard; a config with "
                f"shards={self.config.shards} needs "
                f"repro.shard.ShardedEngine")
        #: The runtime everything runs on. An explicit ``env`` wins;
        #: otherwise one is built at the config's ``time_scale``
        #: (default: unpaced virtual time).
        self.env = env if env is not None else Environment(
            time_scale=self.config.time_scale)
        #: Master seed; every component RNG is a named substream of it
        #: (see repro.sim.rng.component_seed).
        self.seed = seed
        #: The one sink every component records in: the metric
        #: registry and the trace log, plus timings and spans when
        #: config.observability is on.
        self.obs = Observability(self.env, enabled=self.config.observability)
        self.tracer = self.obs.tracer
        self.comm = CommunicationLayer(
            self.env, links=links,
            rng=random.Random(component_seed(seed, "comm:transport")),
            obs=self.obs)
        register_builtin_types(self.comm)
        self.schema = SchemaCatalog(self.comm.catalogs)
        self.cost_model = CostModel(self.comm.cost_tables)

        self.actions = ActionRegistry()
        install_builtin_actions(self.actions, self.cost_model)

        self.functions = FunctionRegistry()
        install_standard_functions(self.functions)
        self.functions.register("coverage", self._coverage, arity=2,
                                stable=True)

        #: The transport's keep-alive connection pool (DESIGN.md
        #: decision 10).
        self.pool = self.comm.transport.pool
        #: TTL device-status cache; None unless config.status_cache.
        self.status_cache: Optional[DeviceStatusCache] = None
        if self.config.status_cache:
            self.status_cache = DeviceStatusCache(self.env, obs=self.obs)
        self.locks = DeviceLockManager(self.env, obs=self.obs)
        #: Per-device circuit breakers; None when health tracking is
        #: not configured. The prober feeds it probe outcomes and the
        #: dispatcher feeds it execution outcomes.
        self.health: Optional[DeviceHealthTracker] = None
        if self.config.health is not None:
            self.health = DeviceHealthTracker(self.env, self.config.health,
                                              obs=self.obs)
            self.comm.prober.health = self.health
            self.health.transition_listeners.append(
                self._on_breaker_transition)
        self.comm.registry.subscribe(self._on_membership)
        #: Overload-control plane (DESIGN.md decision 12); None unless
        #: config.overload, and the off path is byte-identical to a
        #: pre-overload engine.
        self.overload: Optional[OverloadControlPlane] = None
        if self.config.overload:
            policy = self.config.overload_policy or OverloadPolicy()
            self.overload = OverloadControlPlane(
                self.env, policy, self.cost_model,
                device_lookup=self.comm.registry.get,
                fleet_size=lambda: len(self.comm.registry),
                obs=self.obs)
        self.dispatcher = Dispatcher(self.env, self.comm, self.cost_model,
                                     self.locks, self.config,
                                     health=self.health,
                                     obs=self.obs,
                                     status_cache=self.status_cache,
                                     overload=self.overload)
        self.planner = Planner(self.schema, self.actions, self.functions,
                               self.comm)
        self.continuous = ContinuousQueryExecutor(
            self.env, self.comm, self.functions, self.dispatcher)
        self._runs = self.obs.registry.counter("engine.runs")

        #: Assets for CREATE ACTION: profile path -> (profile, resolver,
        #: device-parameter map, select_all flag).
        self._profile_assets: Dict[
            str, Tuple[ActionProfile, QuantityResolver,
                       Dict[str, str], bool]] = {}
        self._started = False

    # ------------------------------------------------------------------
    # Devices
    # ------------------------------------------------------------------
    def add_device(self, device: Device) -> Device:
        """Admit one device to the network."""
        self.comm.add_device(device)
        return device

    def _forget_comm_state(self, device_id: str, reason: str) -> None:
        """Drop a device's pooled channel and cached status.

        Its last-known state became untrustworthy, so nothing of it may
        be reused by the next probe, scan or execution.
        """
        self.comm.transport.invalidate(device_id, reason=reason)
        if self.status_cache is not None:
            self.status_cache.invalidate(device_id, reason=reason)

    def _on_breaker_transition(self, device_id: str,
                               state: "BreakerState") -> None:
        """Nothing is reused across a quarantine edge."""
        self._forget_comm_state(device_id, f"breaker-{state.value}")

    def _on_membership(self, event: str, device: Device) -> None:
        """A departed device's state must not greet whoever joins next
        under its id."""
        if event == "leave":
            self._forget_comm_state(device.device_id, "device-left")

    # ------------------------------------------------------------------
    # Built-in function needing engine context
    # ------------------------------------------------------------------
    def _coverage(self, camera_id: str, location: Any) -> bool:
        """The paper's coverage(camera_id, location) Boolean function."""
        if camera_id not in self.comm.registry:
            return False
        device = self.comm.registry.get(camera_id)
        if not isinstance(device, PanTiltZoomCamera):
            raise QueryError(
                f"coverage() expects a camera, {camera_id!r} is a "
                f"{device.device_type}"
            )
        return device.covers(Point(location.x, location.y))

    # ------------------------------------------------------------------
    # User-defined action assets (the pre-registration steps)
    # ------------------------------------------------------------------
    def install_action_code(self, library_path: str,
                            implementation: ActionImplementation) -> None:
        """Install the executable a CREATE ACTION library path names.

        This is the reproduction's stand-in for "the user must
        pre-compile the code block of the action into a dynamically
        linked library" (Section 2.2).
        """
        self.actions.library.install(library_path, implementation)

    def install_action_profile(
        self,
        profile_path: str,
        profile: ActionProfile,
        resolver: QuantityResolver,
        *,
        device_parameters: Optional[Dict[str, str]] = None,
        select_all: bool = False,
    ) -> None:
        """Install the profile a CREATE ACTION PROFILE path names.

        ``device_parameters`` maps parameter names to the device static
        attribute that identifies the target device (e.g.
        ``{"phone_no": "number"}``). ``select_all=True`` makes the
        action execute on every candidate instead of the cost-optimal
        one (see :class:`~repro.actions.ActionDefinition`).
        """
        if profile_path in self._profile_assets:
            raise AortaError(
                f"profile path {profile_path!r} already installed")
        self._profile_assets[profile_path] = (
            profile, resolver, dict(device_parameters or {}), select_all)

    # ------------------------------------------------------------------
    # The declarative interface
    # ------------------------------------------------------------------
    def execute(self, sql: str) -> Any:
        """Execute one statement of the declarative interface.

        Returns the registered :class:`ActionDefinition` for CREATE
        ACTION, the :class:`RegisteredQuery` for CREATE AQ, ``None`` for
        DROP AQ, and a :class:`SnapshotPlan` for plain SELECT (drive it
        with :meth:`run_select`, or execute it inside a running
        simulation).
        """
        return self.execute_statement(parse(sql))

    def execute_statement(self, statement: Statement) -> Any:
        if isinstance(statement, ExplainStatement):
            return self._explain(statement.target)
        if isinstance(statement, CreateActionStatement):
            return self._create_action(statement)
        if isinstance(statement, CreateAQStatement):
            return self._create_aq(statement)
        if isinstance(statement, DropAQStatement):
            self.continuous.drop(statement.name)
            return None
        if isinstance(statement, SelectQuery):
            return self.planner.plan_snapshot(statement)
        raise QueryError(
            f"unsupported statement {type(statement).__name__}")

    def _explain(self, statement: Statement) -> str:
        """Render a statement's plan without executing or registering."""
        if isinstance(statement, CreateAQStatement):
            plan = self.planner.plan_continuous(statement.name,
                                                statement.query)
            return plan.describe()
        if isinstance(statement, SelectQuery):
            return self.planner.plan_snapshot(statement).describe()
        raise QueryError(
            f"EXPLAIN supports SELECT and CREATE AQ, not "
            f"{type(statement).__name__}"
        )

    def _create_action(
        self, statement: CreateActionStatement
    ) -> ActionDefinition:
        implementation = self.actions.library.resolve(statement.library_path)
        if statement.profile_path not in self._profile_assets:
            raise BindingError(
                f"no profile installed for path "
                f"{statement.profile_path!r}; call install_action_profile "
                f"before CREATE ACTION references it"
            )
        profile, resolver, device_parameters, select_all = (
            self._profile_assets[statement.profile_path])
        if profile.action_name != statement.name:
            raise BindingError(
                f"profile at {statement.profile_path!r} is for action "
                f"{profile.action_name!r}, not {statement.name!r}"
            )
        parameters = tuple(
            ActionParameter(
                name=decl.name,
                type_name=decl.type_name,
                device_attribute=device_parameters.get(decl.name, ""),
            )
            for decl in statement.parameters
        )
        definition = ActionDefinition(
            name=statement.name,
            device_type=profile.device_type,
            parameters=parameters,
            implementation=implementation,
            profile=profile,
            resolver=resolver,
            library_path=statement.library_path,
            profile_path=statement.profile_path,
            select_all=select_all,
        )
        self.actions.register(definition)
        self.cost_model.register_action(profile, resolver)
        return definition

    def _create_aq(self, statement: CreateAQStatement, *, priority: int = 1,
                   deadline_seconds: Optional[float] = None,
                   ) -> RegisteredQuery:
        plan = self.planner.plan_continuous(statement.name, statement.query)
        return self.continuous.register(plan, priority=priority,
                                        deadline_seconds=deadline_seconds)

    def create_aq(self, sql: str, *, priority: int = 1,
                  deadline_seconds: Optional[float] = None,
                  ) -> RegisteredQuery:
        """CREATE AQ with an overload-control service class.

        Like :meth:`execute` on a CREATE AQ statement, but stamps the
        query's priority tier and relative service deadline (virtual
        seconds from emission) onto every request it emits. The class
        only influences behaviour when ``config.overload`` is on.
        """
        statement = parse(sql)
        if not isinstance(statement, CreateAQStatement):
            raise QueryError("create_aq() expects a CREATE AQ statement")
        return self._create_aq(statement, priority=priority,
                               deadline_seconds=deadline_seconds)

    def enable_query(self, name: str) -> None:
        """Resume a paused continuous query."""
        self._query(name).enabled = True

    def disable_query(self, name: str) -> None:
        """Pause a continuous query without dropping it.

        Its event-edge memory is preserved; re-enabling resumes exactly
        where detection left off.
        """
        self._query(name).enabled = False

    def _query(self, name: str):
        if name not in self.continuous.queries:
            raise QueryError(f"no registered query {name!r}")
        return self.continuous.queries[name]

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the continuous executor and the dispatcher."""
        if self._started:
            raise AortaError("engine already started")
        self._started = True
        self.dispatcher.start()
        self.continuous.start()
        if self.overload is not None:
            self.overload.start()

    def run(self, until: float) -> float:
        """Advance the runtime to time ``until``."""
        with self.obs.span("engine.run"):
            stopped = self.env.run(until=until)
        self._runs.inc()
        return stopped

    def run_select(self, sql: str) -> List[Tuple[Any, ...]]:
        """Convenience: execute a snapshot SELECT to completion.

        Only valid when the caller owns the simulation loop (e.g.
        scripts and tests) — it drains the event queue.
        """
        plan = self.execute(sql)
        if not isinstance(plan, SnapshotPlan):
            raise QueryError("run_select() only executes SELECT statements")
        select = self.env.fan_out([plan.execute()])
        self.env.run()
        (rows,) = raise_first_error(select.value)
        return rows

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def completed_requests(self) -> List[ActionRequest]:
        """Every action request that finished dispatch, oldest first."""
        return self.dispatcher.completed

    def device_report(self) -> Dict[str, Dict[str, Any]]:
        """Per-device utilization snapshot.

        Reports what the paper's objective cares about — how evenly the
        action workload landed on the devices ("balance the action
        workload on all available devices and improve device
        utilization", Section 5.1).
        """
        horizon = self.env.now
        report: Dict[str, Dict[str, Any]] = {}
        for device in self.comm.registry:
            report[device.device_id] = {
                "device_type": device.device_type,
                "state": device.state.value,
                "operations": device.operations_executed,
                "busy_seconds": device.busy_seconds,
                "utilization": (device.busy_seconds / horizon
                                if horizon > 0 else 0.0),
            }
        return report

    def metrics(self) -> Dict[str, Any]:
        """The deterministic metric snapshot of this engine's registry.

        Counters are always there; timing histograms and gauges only
        while ``config.observability`` is on.
        """
        return self.obs.registry.snapshot()

    def query_report(self) -> List[Dict[str, Any]]:
        """Per-query catalog listing: name, state, per-query counters.

        Registration order; backs ``python -m repro metrics --queries``
        and the sharded coordinator's fleet-wide aggregation.
        """
        return self.continuous.catalog.report()

    def statistics(self) -> Dict[str, Any]:
        """A status snapshot: :func:`statistics_view` of this engine."""
        return statistics_view(self.obs.registry, self.live_levels())

    def live_levels(self) -> Dict[str, Any]:
        """The ``statistics()`` keys read off the running engine, not
        counted; health, cache and overload keys only when those are
        on."""
        levels: Dict[str, Any] = {
            "virtual_time": self.env.now,
            "devices": len(self.comm.registry),
            "queries": len(self.continuous.queries),
            "requests_completed": len(self.completed_requests),
            "pool_idle": len(self.pool),
        }
        if self.health is not None:
            levels["currently_quarantined"] = len(
                self.health.quarantined_ids())
        if self.status_cache is not None:
            levels["status_cache_entries"] = len(self.status_cache)
        for key, value in self.continuous.index_stats().items():
            levels[f"predicate_index_{key}"] = value
        if self.overload is not None and self.overload.shedder:
            operators = self.dispatcher._operators
            levels.update({
                "overload_shed_passes": self.overload.shedder.shed_passes,
                "overload_shedding_active": self.overload.shedder.active,
                "overload_peak_queue_depth": {
                    name: operator.peak_pending
                    for name, operator in sorted(operators.items())},
            })
        return levels


#: ``statistics()`` key -> the counter it sums over all labels, per
#: block; a block is rendered when its live level is present.
_COUNTED: Tuple[Tuple[Optional[str], Dict[str, str]], ...] = (
    (None, {
        "polls": "continuous.polls",
        "scan_rows": "comm.scan.rows",
        "scan_rows_skipped": "comm.scan.rows_skipped",
        "requests_serviced": "dispatch.requests_serviced",
        "requests_failed": "dispatch.requests_failed",
        "probes_sent": "probe.sent",
        "probes_failed": "probe.failed",
        "lock_acquisitions": "lock.acquisitions",
        "lock_contended": "lock.contended",
        "lock_recoveries": "lock.recoveries",
        "execution_attempts": "dispatch.attempts",
        "retries": "dispatch.retries",
        "failovers": "dispatch.failovers",
        "pool_hits": "comm.pool.hits",
        "pool_misses": "comm.pool.misses",
        "pool_expired": "comm.pool.expired",
        "pool_invalidations": "comm.pool.invalidations",
        "pool_discards": "comm.pool.discarded",
    }),
    ("currently_quarantined", {
        "devices_quarantined": "health.quarantines",
        "devices_readmitted": "health.readmissions",
    }),
    ("status_cache_entries", {
        f"status_cache_{name}": f"probe.cache.{name}"
        for name in ("hits", "misses", "expired", "stores",
                     "invalidations")}),
    ("overload_shed_passes", {
        "requests_shed": "overload.shed",
        "overload_admitted_requests": "overload.admitted",
        "overload_rejected_requests": "overload.rejected",
        "overload_shed_requests": "overload.shed",
    }),
)

#: Overload counts per label value: key -> (counter, label).
_SPLIT = {
    "overload_admitted_by_tier": ("overload.admitted", "tier"),
    "overload_rejected_by_tier": ("overload.rejected", "tier"),
    "overload_shed_by_tier": ("overload.shed", "tier"),
    "overload_rejected_by_reason": ("overload.rejected", "reason"),
    "overload_shed_by_reason": ("overload.shed", "reason"),
    "overload_shed_by_query": ("overload.shed", "query"),
}


def _hit_rate(hits: int, misses: int) -> float:
    lookups = hits + misses
    return hits / lookups if lookups else 0.0


def statistics_view(registry: MetricsRegistry,
                    levels: Dict[str, Any]) -> Dict[str, Any]:
    """``statistics()``: live levels, the counts of :data:`_COUNTED` as
    ``int``, and rates and means recomputed from those counts — for an
    engine (its registry and levels) or a fleet (its shards' merged
    registries and folded levels)."""
    totals = registry.totals()
    stats = dict(levels)
    for gate, counted in _COUNTED:
        if gate is None or gate in levels:
            stats.update((key, int(totals.get(name, 0)))
                         for key, name in counted.items())
    stats["pool_hit_rate"] = _hit_rate(stats["pool_hits"],
                                       stats["pool_misses"])
    if "currently_quarantined" in levels:
        readmitted = stats["devices_readmitted"]
        seconds = sum(histogram.total for _labels, histogram
                      in registry.labeled("health.recovery_seconds"))
        stats["mean_recovery_seconds"] = (
            seconds / readmitted if readmitted else 0.0)
    if "status_cache_entries" in levels:
        stats["status_cache_hit_rate"] = _hit_rate(
            stats["status_cache_hits"], stats["status_cache_misses"])
    if "overload_shed_passes" in levels:
        for key, (name, label) in _SPLIT.items():
            split: Dict[Any, int] = {}
            for labels, counter in registry.labeled(name):
                # A request no AQ emitted is shed with an empty query.
                if labels[label]:
                    value = (int(labels[label]) if label == "tier"
                             else labels[label])
                    split[value] = split.get(value, 0) + int(counter.value)
            stats[key] = dict(sorted(split.items()))
        stats["overload_queue_evictions"] = stats[
            "overload_shed_by_reason"].get(REASON_EVICTED, 0)
    return stats
