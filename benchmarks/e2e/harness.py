"""One repetition: set up, drive, check, measure.

Everything goes through the public engine surface — ``ShardedEngine``
(a 1-shard fleet is a pure pass-through to ``AortaEngine``),
``EngineConfig``, ``create_aq``/``execute``, ``inject``, ``start``,
``run``, ``statistics``, ``query_report``, ``device_report``,
``completed_requests``, ``round_breakdown`` — so the benchmark keeps
running unchanged while the engine behind it is refactored.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import multiprocessing
import resource
import statistics
import sys
import time
from multiprocessing import resource_tracker
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import EngineConfig, RegionPlacement, ShardedEngine

from layertrace import LayerTracer
from workloads import AQ, STORM, Job, install_sendphoto

#: Every performance fast path; the tuned profile switches on the ones
#: that still exist as EngineConfig fields.
TUNED_FLAGS = ("connection_pool", "status_cache", "concurrent_dispatch",
               "vectorize", "incremental", "predicate_index")

#: Set-ups per repetition; ``setup_s`` is their median and the last
#: one is the fleet that runs.
SETUPS = 3

#: Virtual seconds run after every AQ is disabled, so the last poll's
#: scan has returned its connections before the leak checks look.
QUIESCE_SECONDS = 5.0

#: Timed slices one run() is cut into; the host's pace is sampled
#: between slices.
SLICES = 40

TERMINAL_STATES = ("serviced", "failed", "rejected", "shed")


def have_numpy() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def engine_config(profile: str, without: Sequence[str],
                  overrides: Dict[str, Any]
                  ) -> Tuple[EngineConfig, List[str]]:
    """The profile's config, and which wanted flags no longer exist."""
    known = {f.name for f in dataclasses.fields(EngineConfig)}
    absent = [name for name in TUNED_FLAGS if name not in known]
    flags: Dict[str, Any] = {}
    if profile == "tuned":
        flags = {name: True for name in TUNED_FLAGS
                 if name in known and name not in without}
        if not have_numpy():
            flags.pop("vectorize", None)
    return EngineConfig(**flags, **overrides), absent


# ----------------------------------------------------------------------
# Host pace
# ----------------------------------------------------------------------
def host_pace() -> float:
    """Seconds this host needs, right now, for a fixed integer loop.

    The sandbox hosts this benchmark runs on change speed by 10-30 %
    from one second to the next (neighbours on the same machine), which
    would bury a 10 % regression. The loop touches nothing of the
    engine, so dividing a timed slice by the pace measured around it
    cancels the host's share of the variation and nothing else.
    """
    started = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    return time.perf_counter() - started


class PacedTimer:
    """Wall seconds of timed slices, each rescaled to the best pace seen.

    ``seconds(key)`` is what the slices filed under ``key`` would have
    taken had the host held, throughout, the fastest pace it showed at
    any sample of this repetition; ``raw(key)`` is the plain wall.
    """

    def __init__(self) -> None:
        self._last = host_pace()
        self._best = self._last
        self._slices: List[Tuple[str, float, float]] = []

    def timed(self, key: str, started: float) -> None:
        """File the slice that began at ``started`` and ends now."""
        wall = time.perf_counter() - started
        before, self._last = self._last, host_pace()
        self._best = min(self._best, self._last)
        self._slices.append((key, wall, 0.5 * (before + self._last)))

    def raw(self, key: str) -> List[float]:
        return [wall for name, wall, _pace in self._slices if name == key]

    def seconds(self, key: str) -> List[float]:
        return [wall * self._best / pace
                for name, wall, pace in self._slices if name == key]


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def _register(fleet: ShardedEngine, aq: AQ) -> None:
    fleet.create_aq(aq.sql(), priority=aq.priority,
                    deadline_seconds=aq.deadline_seconds)


def set_up(job: Job, config: EngineConfig,
           seed: int) -> Tuple[ShardedEngine, float]:
    """Fleet build + action install + AQ registration.

    Returns the fleet and the wall seconds the registrations took.
    """
    placement = (RegionPlacement(config.shards, job.placement)
                 if job.placement else None)
    fleet = ShardedEngine(config=config, placement=placement, seed=seed)
    try:
        for device_id, spec in job.devices:
            fleet.add_device(device_id, spec)
        if any(aq.action == "sendphoto" for aq in job.aqs):
            install_sendphoto(fleet)
        registering = time.perf_counter()
        for aq in job.aqs:
            _register(fleet, aq)
    except BaseException:
        fleet.close()
        raise
    return fleet, time.perf_counter() - registering


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
def _report_counts(report: List[Dict[str, Any]]) -> Dict[str, List[int]]:
    return {entry["name"]: [entry["events_detected"],
                            entry["requests_emitted"],
                            entry["requests_rejected"],
                            entry["uncovered_events"]]
            for entry in report}


def _percentile(ordered: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


class Outcome:
    """What happened to every injected event, and whether it adds up."""

    def __init__(self, job: Job, completed: List[Any],
                 counts: Dict[str, List[int]]) -> None:
        self.problems: List[str] = []
        self.injected = len(job.events)
        #: event key -> (terminal state, completed_at)
        self.terminal: Dict[Tuple[Any, ...], Tuple[str, float]] = {}
        self.latencies: List[float] = []
        self.detect_lags: List[float] = []
        rejected_storm = [request for request in job.storm_requests.values()
                          if request.state.value == "rejected"]
        for request in list(completed) + rejected_storm:
            key = job.event_of(request)
            state = request.state.value
            if key is None or key not in job.events:
                self.problems.append(
                    f"request {request.request_id} ({request.query_id} at "
                    f"{request.created_at}) answers no injected event")
            elif key in self.terminal:
                self.problems.append(f"event {key} reached two terminal "
                                     f"states")
            elif state not in TERMINAL_STATES:
                self.problems.append(f"event {key} ended {state}")
            else:
                self.terminal[key] = (state, request.completed_at)
                if state == "serviced":
                    self.latencies.append(
                        request.completed_at - job.events[key])
                if request.query_id != STORM:
                    self.detect_lags.append(
                        request.created_at - job.events[key])
        self.by_state = {state: 0 for state in TERMINAL_STATES}
        for state, _at in self.terminal.values():
            self.by_state[state] += 1

        # The engine's own per-query counters, independent of the
        # completion log: detections, emissions, refusals.
        fan = {aq.name: (job.fan_out if aq.action == "sendphoto" else 1)
               for aq in job.aqs}
        detected = sum(c[0] * fan[name] for name, c in counts.items())
        emitted = sum(c[1] for c in counts.values())
        rejected = sum(c[2] for c in counts.values())
        uncovered = sum(c[3] for c in counts.values())
        injected_aq = sum(1 for key in job.events if key[0] != STORM)
        answered_aq = sum(1 for key in self.terminal if key[0] != STORM)
        self.by_state["rejected"] += rejected
        self.by_state["undetected"] = injected_aq - detected
        self.events_detected = detected
        self.requests_emitted = emitted
        if uncovered:
            self.problems.append(f"{uncovered} events had no candidate")
        if detected > injected_aq:
            self.problems.append(
                f"{detected} detections for {injected_aq} injected events")
        if emitted != answered_aq:
            self.problems.append(
                f"{emitted} requests emitted but {answered_aq} reached a "
                f"terminal state")
        if detected != emitted + rejected:
            self.problems.append(
                f"{detected} detections but {emitted} emitted + "
                f"{rejected} rejected requests")
        if sum(self.by_state.values()) != self.injected:
            self.problems.append(
                f"injected {self.injected} != " + " + ".join(
                    f"{count} {state}"
                    for state, count in self.by_state.items()))

    @property
    def serviced(self) -> int:
        return self.by_state["serviced"]

    def digest(self) -> str:
        """Hash of sorted (event, terminal state, completed_at)."""
        lines = [repr((key, state, at))
                 for key, (state, at) in sorted(self.terminal.items())]
        lines.append(repr(sorted(self.by_state.items())))
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _leak_checks(fleet: ShardedEngine, job: Job) -> List[str]:
    """No lock held, nothing pending, no connection checked out."""
    from repro.network.transport import Connection
    engine = fleet.shard(0)
    for name in list(engine.continuous.queries):
        engine.disable_query(name)
    fleet.run(until=job.horizon + QUIESCE_SECONDS)
    problems = []
    held = [device_id for device_id, _spec in job.devices
            if engine.locks.is_locked(device_id)]
    if held:
        problems.append(f"locks still held at quiescence: {held[:5]}")
    if engine.dispatcher.pending_requests:
        problems.append(f"{engine.dispatcher.pending_requests} requests "
                        f"still pending at quiescence")
    gc.collect()
    open_now = sum(1 for item in gc.get_objects()
                   if type(item) is Connection and not item.closed)
    idle = len(engine.pool) if engine.pool is not None else 0
    if open_now != idle:
        problems.append(f"{open_now} connections open at quiescence but "
                        f"{idle} idle in the pool")
    return problems


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def stop_started_processes() -> None:
    """Stop every process this interpreter started; wait until each ended.

    ``fleet.close()`` joins the shard workers, but a ``spawn`` fleet
    also starts multiprocessing's resource tracker, which would outlive
    the benchmark by a moment: it only ends once its pipe is closed.
    A worker that an interrupted set-up left behind is killed first.
    """
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    # Closes the tracker's pipe and waits for its pid; a no-op when no
    # tracker was started, and a later spawn starts a new one.
    resource_tracker._resource_tracker._stop()


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident set of this process plus reaped children, in MB."""
    scale = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / scale


def repetition(job: Job, seed: int, *, profile: str = "tuned",
               without: Sequence[str] = (), traced: bool = False,
               observability: bool = False) -> Dict[str, Any]:
    """Run ``job`` once; returns metrics, counts, checks and digest."""
    overrides = dict(job.config)
    if observability:
        overrides["observability"] = True
    config, flags_absent = engine_config(profile, without, overrides)
    tracer: Optional[LayerTracer] = None
    if traced:
        tracer = LayerTracer()
        tracer.install()
    fleet: Optional[ShardedEngine] = None
    timer = PacedTimer()
    try:
        for _ in range(SETUPS):
            if fleet is not None:
                fleet.close()
                fleet = None
                gc.collect()
            started = time.perf_counter()
            fleet, register_s = set_up(job, config, seed)
            timer.timed("setup", started)

        for mote, stimulus in job.stimuli:
            fleet.inject(mote, stimulus)
        if job.arm is not None:
            job.arm(fleet, job)
        # What set-up built lives for the whole run: keep the cycle
        # collector from re-walking it (and from pausing the run at
        # seed-dependent moments).
        gc.collect()
        gc.freeze()
        fleet.start()
        if tracer is not None:
            tracer.self_s.clear()  # set-up is timed on its own
        counts: Dict[str, List[int]] = {}
        churn = list(job.churn)
        stops = sorted({job.horizon * (k + 1) / SLICES
                        for k in range(SLICES)} | {at for at, *_ in churn})
        for stop in stops:
            started = time.perf_counter()
            fleet.run(until=stop)
            while churn and churn[0][0] == stop:
                _at, drops, creates = churn.pop(0)
                if drops:
                    # Counters of a dropped AQ vanish with it: keep them.
                    before = _report_counts(fleet.query_report())
                    counts.update({name: before[name] for name in drops})
                for name in drops:
                    fleet.execute(f"DROP AQ {name}")
                for aq in creates:
                    _register(fleet, aq)
            timer.timed("run", started)
        wall = sum(timer.seconds("run"))
        raw_wall = sum(timer.raw("run"))

        for name, values in _report_counts(fleet.query_report()).items():
            counts[name] = [a + b for a, b in
                            zip(values, counts.get(name, [0, 0, 0, 0]))]
        stats = fleet.statistics()
        outcome = Outcome(job, fleet.completed_requests, counts)
        problems = outcome.problems
        if job.arm is None and outcome.serviced != outcome.injected:
            problems.append(f"fault-free workload serviced "
                            f"{outcome.serviced} of {outcome.injected}")
        if tracer is not None and tracer.depth:
            problems.append(f"layer stack not balanced: depth "
                            f"{tracer.depth} after run()")
        layers = _per_layer(job, fleet, stats, outcome, tracer, register_s,
                            timer.raw("setup")[-1], raw_wall
                            ) if traced else {}
        if not fleet.parallel:
            problems += _leak_checks(fleet, job)
    finally:
        gc.unfreeze()
        if tracer is not None:
            tracer.uninstall()
        try:
            if fleet is not None:
                fleet.close()
        finally:
            stop_started_processes()

    latencies = sorted(outcome.latencies)
    end_to_end = {
        "serviced_per_wall_s": outcome.serviced / wall,
        "action_latency_p50_vs": statistics.median(latencies),
        "action_latency_p99_vs": _percentile(latencies, 0.99),
        "events_serviced_frac": outcome.serviced / outcome.injected,
        "setup_s": statistics.median(timer.seconds("setup")),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {
        "workload": job.name,
        "seed": seed,
        "profile": profile,
        "without": list(without),
        "flags_absent": flags_absent,
        "trace_absent": tracer.absent if tracer is not None else [],
        "end_to_end": end_to_end,
        "per_layer": layers,
        "run_wall_s": raw_wall,
        "run_paced_s": wall,
        "injected": outcome.injected,
        "states": outcome.by_state,
        "latency_samples": len(latencies),
        "digest": outcome.digest(),
        "problems": problems,
    }


# ----------------------------------------------------------------------
# Per-layer metrics (traced repetition only)
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _per_layer(job: Job, fleet: ShardedEngine, stats: Dict[str, Any],
               outcome: Outcome, tracer: LayerTracer, register_s: float,
               setup_wall: float, wall: float) -> Dict[str, float]:
    """The per-layer table: tracer self times + the engine's counters.

    On a process fleet the engines live in the workers, out of reach of
    this file's wrappers: wall self times and dispatch reports read 0
    there and the ``shard.*`` rows carry the information instead.
    """
    self_s, calls, virtual = tracer.self_s, tracer.calls, tracer.virtual_s
    reports = [] if fleet.parallel else fleet.shard(0).dispatcher.reports
    scheduled = [r for r in reports if r.cache_stats is not None]
    cache_hits = sum(r.cache_stats["hits"] for r in scheduled)
    cache_misses = sum(r.cache_stats["misses"] for r in scheduled)
    busy = [entry for entry in fleet.device_report().values()
            if entry["device_type"] != "sensor"]
    utilization = [entry["utilization"] for entry in busy] or [0.0]
    rounds = fleet.round_breakdown() or {"rounds": 0, "per_shard": []}
    shard_busy = [s["busy_s"] for s in rounds["per_shard"]] or [0.0]
    shard_wait = [s["barrier_wait_s"] for s in rounds["per_shard"]] or [0.0]
    peak_depth = stats.get("overload_peak_queue_depth", {})
    named = sum(seconds for layer, seconds in self_s.items()
                if layer != "other")
    layers = {
        "query.register_s": register_s,
        "query.aqs_registered": len(job.aqs),
        "query.index_match_self_s": self_s["query.index"],
        "query.index_examined_per_match": _ratio(
            stats.get("predicate_index_candidates_examined", 0),
            stats.get("predicate_index_matches", 0)),
        "query.index_rebuilds": stats.get("predicate_index_rebuilds", 0),
        "query.function_calls": calls["FunctionRegistry.call"],
        "query.function_self_s": self_s["query.function"],
        "continuous.polls": stats["polls"],
        "continuous.self_s": self_s["continuous"],
        "continuous.rows_scanned": stats.get("predicate_index_lookups", 0),
        "continuous.events_detected": outcome.events_detected,
        "continuous.requests_emitted": outcome.requests_emitted,
        "continuous.poll_cycle_vs": _ratio(
            stats["virtual_time"] * fleet.n_shards, stats["polls"]),
        "continuous.detect_lag_p50_vs": statistics.median(
            outcome.detect_lags),
        "comm.scan_self_s": self_s["comm.scan"],
        "comm.scans": calls["ScanOperator.scan"],
        "comm.probe_self_s": self_s["comm.probe"],
        "comm.probes_sent": stats["probes_sent"],
        "comm.probes_failed": stats["probes_failed"],
        "comm.probe_vs_per_batch": _ratio(virtual["Prober.probe_all"],
                                          calls["Prober.probe_all"]),
        "comm.pool_hit_rate": _ratio(
            stats.get("pool_hits", 0),
            stats.get("pool_hits", 0) + stats.get("pool_misses", 0)),
        "comm.connects": calls["Transport.connect"],
        "comm.status_cache_hit_rate": _ratio(
            stats.get("status_cache_hits", 0),
            stats.get("status_cache_hits", 0)
            + stats.get("status_cache_misses", 0)),
        "network.transport_self_s": self_s["network"],
        "network.requests": calls["Connection.request"],
        "scheduling.schedule_s": sum(r.scheduling_seconds for r in reports),
        "scheduling.self_s": self_s["scheduling"],
        "scheduling.batches": len(reports),
        "scheduling.batch_size_mean": _ratio(
            sum(r.batch_size for r in reports), len(reports)),
        "scheduling.batch_makespan_mean_vs": _ratio(
            sum(r.makespan_seconds for r in reports), len(reports)),
        "scheduling.cost_estimates": cache_misses,
        "scheduling.cost_cache_hit_rate": _ratio(
            cache_hits, cache_hits + cache_misses),
        "scheduling.incremental_reuse_frac": _ratio(
            stats.get("incremental_reused_requests", 0),
            stats.get("incremental_reused_requests", 0)
            + stats.get("incremental_replaced_requests", 0)),
        "cost.estimate_self_s": self_s["cost"],
        "sync.lock_acquisitions": stats["lock_acquisitions"],
        "sync.lock_contended_frac": _ratio(stats["lock_contended"],
                                           stats["lock_acquisitions"]),
        "sync.lock_wait_vs_mean": _ratio(
            virtual["DeviceLockManager.acquire"],
            calls["DeviceLockManager.acquire"]),
        "sync.lock_self_s": self_s["sync"],
        "dispatcher.self_s": self_s["dispatcher"],
        "dispatcher.attempts": stats["execution_attempts"],
        "dispatcher.retries": stats["retries"],
        "dispatcher.failovers": stats["failovers"],
        "dispatcher.unschedulable": sum(r.unschedulable for r in reports),
        "devices.execute_self_s": self_s["devices"],
        "devices.operations": sum(entry["operations"] for entry in busy),
        "devices.utilization_mean": statistics.fmean(utilization),
        "devices.utilization_max": max(utilization),
        "devices.quarantines": stats.get("devices_quarantined", 0),
        "overload.offer_self_s": self_s["overload"],
        "overload.admitted": stats.get("overload_admitted_requests", 0),
        "overload.rejected": stats.get("overload_rejected_requests", 0),
        "overload.shed": stats.get("overload_shed_requests", 0),
        "overload.peak_queue_depth": max(peak_depth.values(), default=0),
        "shard.rounds": rounds["rounds"],
        "shard.busy_s_max": max(shard_busy),
        "shard.barrier_wait_s_max": max(shard_wait),
        "shard.busy_skew": _ratio(max(shard_busy), min(shard_busy)),
        "shard.spawn_replay_s": setup_wall if fleet.parallel else 0.0,
        "sim.events_processed": (0 if fleet.parallel
                                 else fleet.shard(0).env.events_processed),
        "sim.kernel_self_s": self_s["sim"],
        "bench.run_wall_s": wall,
        "bench.unattributed_frac": (wall - named) / wall,
        "events_failed_frac": 1.0 - outcome.serviced / outcome.injected,
    }
    return {name: float(value) for name, value in layers.items()}
