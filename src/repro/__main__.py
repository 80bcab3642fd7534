"""Command-line entry point: ``python -m repro``.

Prints the library banner and optionally runs the built-in demo (the
paper's Figure 1 scenario, same as ``examples/quickstart.py``). The
``metrics`` subcommand runs the same scenario with observability
enabled and exports its metrics and span tree.
"""

from __future__ import annotations

import argparse
import math
import sys

import repro
from repro import (
    AortaEngine,
    DeviceSpec,
    EngineConfig,
    PanTiltZoomCamera,
    Point,
    RegionPlacement,
    SensorMote,
    SensorStimulus,
    ShardedEngine,
)
from repro.obs import (
    metrics_to_json,
    metrics_to_text,
    span_records,
    span_tree_text,
)

DEMO_AQ = '''CREATE AQ snapshot AS
    SELECT photo(c.ip, s.loc, "photos/admin")
    FROM sensor s, camera c
    WHERE s.accel_x > 500 AND coverage(c.id, s.loc)'''

BANNER = f"""Aorta {repro.__version__} — pervasive query processing
Reproduction of Xue, Luo, Ni: "Systems Support for Pervasive Query
Processing" (ICDCS 2005). See README.md, DESIGN.md, EXPERIMENTS.md.
"""


def _demo_engine(*, observability: bool = False,
                 time_scale: float = 0.0,
                 fastpath: bool = False,
                 overload: bool = False) -> AortaEngine:
    """The Figure 1 scenario, built but not yet run.

    A positive ``time_scale`` paces the same scenario against the wall
    clock: ``1.0`` replays its 30 runtime seconds in 30 real seconds,
    and the trace is the unpaced run's. ``fastpath`` switches on the
    status cache, the one opt-in policy of the comm layer (pooled
    channels and per-action dispatch are always how the engine talks
    to devices).
    ``overload`` switches on the overload-control plane and additionally
    injects a deterministic request storm so the admission, bounded
    queue and shedding counters have something to report.
    """
    policy = None
    if overload:
        from repro.overload import OverloadPolicy, TierRate
        policy = OverloadPolicy(
            tier_rates={1: TierRate(rate=1.0, burst=2.0)},
            queue_limit=8,
            shed_high_watermark=6, shed_low_watermark=2)
    config = EngineConfig(observability=observability,
                          time_scale=time_scale,
                          status_cache=fastpath,
                          overload=overload, overload_policy=policy)
    engine = AortaEngine(config=config)
    env = engine.env
    engine.add_device(PanTiltZoomCamera(env, "cam1", Point(0, 0)))
    engine.add_device(PanTiltZoomCamera(env, "cam2", Point(20, 0),
                                        facing=180.0))
    mote = SensorMote(env, "mote1", Point(5, 3), noise_amplitude=0.0)
    engine.add_device(mote)
    engine.execute(DEMO_AQ)
    mote.inject(SensorStimulus("accel_x", start=2.0, duration=3.0,
                               magnitude=850.0))
    if overload:
        _inject_demo_storm(engine)
    engine.start()
    engine.run(until=30.0)
    return engine


def _demo_fleet(shards: int, *,
                observability: bool = False,
                parallel: bool = False) -> ShardedEngine:
    """The Figure 1 scenario replicated across ``shards`` regions.

    Each region (= shard, via explicit region placement) gets the
    paper's two ceiling cameras and one sensor mote; every region's
    mote fires at a staggered time so each shard services one photo of
    its own. Built and run, like :func:`_demo_engine`. Device factories
    are :class:`~repro.DeviceSpec` values so ``parallel=True`` can
    replay them inside worker processes.
    """
    regions = {
        f"region{index:02d}": [f"cam{index:02d}a", f"cam{index:02d}b",
                               f"mote{index:02d}"]
        for index in range(shards)
    }
    fleet = ShardedEngine(
        config=EngineConfig(observability=observability, shards=shards,
                            parallel=parallel),
        placement=RegionPlacement.from_regions(regions), seed=0)
    for index in range(shards):
        tag = f"{index:02d}"
        fleet.add_device(f"cam{tag}a", DeviceSpec(
            PanTiltZoomCamera, f"cam{tag}a", Point(0, 0),
            ip_address=f"10.0.{index}.1"))
        fleet.add_device(f"cam{tag}b", DeviceSpec(
            PanTiltZoomCamera, f"cam{tag}b", Point(20, 0),
            facing=180.0, ip_address=f"10.0.{index}.2"))
        fleet.add_device(f"mote{tag}", DeviceSpec(
            SensorMote, f"mote{tag}", Point(5, 3), noise_amplitude=0.0))
    fleet.execute(DEMO_AQ)
    for index in range(shards):
        fleet.inject(f"mote{index:02d}",
                     SensorStimulus("accel_x", start=2.0 + index,
                                    duration=3.0, magnitude=850.0))
    fleet.start()
    fleet.run(until=30.0 + shards)
    return fleet


def run_sharded_demo(shards: int, *, parallel: bool = False) -> int:
    """The Figure 1 scenario fanned out across ``shards`` regions."""
    fleet = _demo_fleet(shards, parallel=parallel)
    mode = "process workers" if fleet.parallel else "in-process"
    print(f"Fleet of {fleet.n_shards} shards "
          f"(region placement, one region per shard, {mode})")
    for index, stats in enumerate(fleet.shard_statistics()):
        print(f"  shard {index}: {stats['devices']} devices, "
              f"{stats['requests_serviced']} serviced")
    stats = fleet.statistics()
    print(f"Fleet total: {stats['devices']} devices, "
          f"{stats['requests_serviced']} serviced, "
          f"{stats['queries']} AQ registrations")
    for request in fleet.completed_requests:
        print(f"  {request.request_id}: {request.result.pathname} "
              f"({request.completion_seconds:.2f}s after the event)")
    breakdown = fleet.round_breakdown()
    if breakdown is not None:
        waits = ", ".join(
            f"s{entry['shard']}={entry['barrier_wait_s']:.2f}s"
            for entry in breakdown["per_shard"])
        # One round per run(): the demo fleet shares no ledger.
        rounds = breakdown["rounds"]
        print(f"{rounds} round{'' if rounds == 1 else 's'} in "
              f"{breakdown['wall_s']:.2f}s wall; barrier waits: {waits}")
    fleet.close()
    return 0


def _inject_demo_storm(engine: AortaEngine) -> None:
    """A small deterministic photo storm for ``metrics --overload``."""
    from repro.actions.request import ActionRequest
    from repro.devices.failures import FailureInjector

    operator = engine.dispatcher.operator_for(engine.actions.get("photo"))
    candidates = ("cam1", "cam2")

    def make_request(index: int, now: float) -> ActionRequest:
        tier = 3 if index % 4 == 0 else (2 if index % 4 == 1 else 1)
        deadline = None if tier == 3 else now + (3.0 if tier == 2 else 8.0)
        return ActionRequest(
            action_name="photo",
            arguments={"target": Point(10.0 + index, 5.0),
                       "directory": "photos/storm"},
            created_at=now, candidates=candidates,
            request_id=f"storm{index:02d}", priority=tier,
            deadline=deadline)

    injector = FailureInjector(engine.env)
    injector.schedule_request_storm(
        lambda request: engine.dispatcher.submit(operator, request),
        make_request, start=1.0, duration=2.0, rate=10.0)


def _print_query_listing(report: list[dict]) -> None:
    """The query-catalog table: one line per registered AQ."""
    print("registered queries:")
    if not report:
        print("  (none)")
        return
    header = (f"  {'name':<16} {'state':<9} {'events':>7} "
              f"{'emitted':>8} {'rejected':>9} {'uncovered':>10}")
    print(header)
    for entry in report:
        print(f"  {entry['name']:<16} {entry['state']:<9} "
              f"{entry['events_detected']:>7} "
              f"{entry['requests_emitted']:>8} "
              f"{entry['requests_rejected']:>9} "
              f"{entry['uncovered_events']:>10}")


def run_demo(*, time_scale: float = 0.0) -> int:
    """The Figure 1 snapshot query in one shot."""
    engine = _demo_engine(time_scale=time_scale)
    print("Trace of the run:")
    print(engine.tracer.tail())
    request = engine.completed_requests[0]
    print(f"\nPhoto stored at {request.result.pathname} "
          f"({request.completion_seconds:.2f}s after the event)")
    print()
    _print_query_listing(engine.query_report())
    return 0


def run_sharded_metrics(shards: int, *, as_json: bool = False,
                        queries: bool = False,
                        parallel: bool = False) -> int:
    """Run the sharded demo with observability; print labeled metrics.

    Every series carries a ``shard=<i>`` label, so per-shard activity
    stays distinguishable in the merged fleet snapshot (a parallel
    fleet additionally reports its ``shard.round.*`` wall-clock
    series). ``queries`` appends the fleet-wide query-catalog listing
    (per-shard counters merged by query name).
    """
    fleet = _demo_fleet(shards, observability=True, parallel=parallel)
    snapshot = fleet.shard_labeled_metrics()
    if as_json:
        print(metrics_to_json(snapshot))
    else:
        print(metrics_to_text(snapshot))
        if queries:
            print()
            _print_query_listing(fleet.query_report())
    fleet.close()
    return 0


def run_metrics(*, as_json: bool = False, spans: bool = False,
                fastpath: bool = False, overload: bool = False,
                queries: bool = False) -> int:
    """Run the demo with observability on; export what it measured.

    The text form always appends a one-line summary of the connection
    pool. JSON output is the metric snapshot alone, or with ``spans``
    one object holding ``metrics`` and ``spans``. With ``fastpath`` the
    status cache is enabled, so the snapshot additionally carries the
    ``probe.cache.*`` counter family and the text form a one-line
    summary of it. With ``overload`` the
    overload-control plane is enabled against an injected request
    storm, and the text form appends admitted/rejected/shed counts per
    priority tier plus the peak pending-queue depth per operator. With
    ``queries`` the text form appends the query-catalog listing (name,
    state, per-query event and request counters).
    """
    engine = _demo_engine(observability=True, fastpath=fastpath,
                          overload=overload)
    snapshot = engine.metrics()
    if as_json:
        print(metrics_to_json(
            {"metrics": snapshot, "spans": span_records(engine.tracer)}
            if spans else snapshot))
    else:
        print(metrics_to_text(snapshot))
        if queries:
            print()
            _print_query_listing(engine.query_report())
        stats = engine.statistics()
        print(f"\nconnection pool: {stats['pool_hits']} hits / "
              f"{stats['pool_misses']} misses "
              f"(hit rate {stats['pool_hit_rate']:.0%}), "
              f"{stats['pool_idle']} idle")
        if engine.status_cache is not None:
            print(f"status cache: {stats['status_cache_hits']} hits / "
                  f"{stats['status_cache_misses']} misses "
                  f"(hit rate {stats['status_cache_hit_rate']:.0%}), "
                  f"{stats['status_cache_invalidations']} invalidations")
        if engine.overload is not None:
            admitted = stats["overload_admitted_by_tier"]
            rejected = stats["overload_rejected_by_tier"]
            shed = stats["overload_shed_by_tier"]
            print("\noverload control (per priority tier):")
            for tier in sorted(set(admitted) | set(rejected) | set(shed)):
                print(f"  tier {tier}: {admitted.get(tier, 0)} admitted, "
                      f"{rejected.get(tier, 0)} rejected, "
                      f"{shed.get(tier, 0)} shed")
            print(f"  {stats['overload_shed_passes']} shedder passes")
            for name, operator in sorted(
                    engine.dispatcher._operators.items()):
                print(f"  peak queue depth [{name}]: "
                      f"{operator.peak_pending}"
                      + (f" (limit {operator.limit})"
                         if operator.limit is not None else ""))
        if spans:
            print("\nspan tree:")
            print(span_tree_text(engine.tracer))
    return 0


def _shard_count(text: str) -> int:
    """``--shards``: a whole number of engine shards, at least 1."""
    try:
        count = int(text)
    except ValueError:
        count = 0  # refused below, with the same message
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"expected a whole number of shards >= 1, got {text!r}")
    return count


def _time_scale(text: str) -> float:
    """``--time-scale``: wall seconds per runtime second, finite and
    not negative (``Environment`` refuses anything else)."""
    try:
        scale = float(text)
    except ValueError:
        scale = math.nan  # refused below, with the same message
    if not 0 <= scale < math.inf:  # NaN as well
        raise argparse.ArgumentTypeError(
            f"expected a finite scale >= 0, got {text!r}")
    return scale


def _refuse_ignored_flags(parser: argparse.ArgumentParser,
                          args: argparse.Namespace) -> None:
    """Exit with a usage error on a flag the chosen code path would
    drop without saying so."""
    metrics = args.command == "metrics"
    sharded = args.shards > 1
    paced = args.time_scale != 0.0
    refusals = [
        (args.parallel and not sharded, "--parallel needs --shards >= 2"),
        (paced and (metrics or sharded),
         "--time-scale paces the single-engine --demo only"),
        (not metrics and not args.demo and (sharded or paced),
         "--shards and --time-scale need --demo"),
        (metrics and args.demo,
         "metrics runs the demo scenario itself; drop --demo"),
        (metrics and sharded and (args.spans or args.fastpath
                                  or args.overload),
         "metrics --spans, --fastpath and --overload report one engine; "
         "not available with --shards >= 2"),
        (metrics and args.json and args.queries,
         "metrics --json is the metric snapshot only; drop --queries"),
    ]
    for ignored, message in refusals:
        if ignored:
            parser.error(message)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description=BANNER,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--demo", action="store_true",
                        help="run the Figure 1 demo scenario")
    parser.add_argument("--time-scale", type=_time_scale, default=0.0,
                        help="pace --demo against the wall clock: wall "
                             "seconds per runtime second (default 0 = "
                             "unpaced virtual time)")
    parser.add_argument("--shards", type=_shard_count, default=1,
                        help="partition the demo fleet across N engine "
                             "shards (region placement, one Figure 1 "
                             "region per shard; default 1 = the plain "
                             "engine)")
    parser.add_argument("--parallel", action="store_true",
                        help="run each demo shard in its own worker "
                             "(shards compute concurrently; needs "
                             "--shards >= 2)")
    parser.add_argument("--version", action="store_true",
                        help="print the version and exit")
    subcommands = parser.add_subparsers(dest="command")
    metrics = subcommands.add_parser(
        "metrics",
        help="run the demo scenario with observability enabled and "
             "print its metrics")
    metrics.add_argument("--json", action="store_true",
                         help="export machine-readable JSON instead of "
                              "the text table")
    metrics.add_argument("--spans", action="store_true",
                         help="also print the virtual-time span tree")
    metrics.add_argument("--fastpath", action="store_true",
                         help="enable the status cache (the comm "
                              "layer's one opt-in policy; pooling and "
                              "per-action dispatch are always on) and "
                              "report its counters")
    metrics.add_argument("--overload", action="store_true",
                         help="enable the overload-control plane, "
                              "inject a request storm, and report "
                              "per-tier admission/shedding counters "
                              "and peak queue depths")
    metrics.add_argument("--queries", action="store_true",
                         help="append the query-catalog listing: one "
                              "line per registered AQ with its state "
                              "and per-query event/request counters")
    # The two fleet flags are accepted on either side of the
    # subcommand; SUPPRESS keeps a value given before it from being
    # overwritten by the subparser's default.
    metrics.add_argument("--shards", type=_shard_count,
                         default=argparse.SUPPRESS,
                         help="run the sharded demo fleet and print "
                              "shard-labeled fleet metrics (default 1 "
                              "= the plain engine snapshot)")
    metrics.add_argument("--parallel", action="store_true",
                         default=argparse.SUPPRESS,
                         help="run the sharded metrics demo with "
                              "parallel workers (needs --shards >= 2)")
    args = parser.parse_args(argv)
    if args.version:
        print(repro.__version__)
        return 0
    _refuse_ignored_flags(parser, args)
    if args.command == "metrics":
        if args.shards > 1:
            return run_sharded_metrics(
                args.shards, as_json=args.json, queries=args.queries,
                parallel=args.parallel)
        return run_metrics(as_json=args.json, spans=args.spans,
                           fastpath=args.fastpath,
                           overload=args.overload,
                           queries=args.queries)
    print(BANNER)
    if args.demo:
        if args.shards > 1:
            return run_sharded_demo(args.shards, parallel=args.parallel)
        return run_demo(time_scale=args.time_scale)
    print("Run with --demo for the Figure 1 scenario, or see examples/.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
