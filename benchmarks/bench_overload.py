"""Overload-control benchmark: storms, bounded queues, priority.

Four gates on the overload plane (``EngineConfig(overload=True)``):

* **off-identical** — the snapshot scenario run with the overload knob
  absent, and again with it explicitly off, must produce byte-identical
  normalized dumps, both equal to the checked-in ``snapshot_obs``
  golden. The default-off path is inert.
* **bounded** — under a request storm at roughly 3x fleet capacity, no
  operator's pending queue ever exceeds the configured limit.
* **priority** — the overloaded engine still services at least 95% of
  its high-priority (tier 3) requests inside their deadlines, while the
  plain engine — same fleet, same storm — degrades below that bar:
  admission, bounded queues and shedding buy graceful degradation, not
  throughput.
* **deterministic** — two overload-on storm runs dump identically
  (traces, statistics, completed set).

Writes a machine-readable ``BENCH_overload.json`` at the repo root and
exits non-zero when any gate fails.

Usage::

    PYTHONPATH=src python benchmarks/bench_overload.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.dirname(__file__))

from _common import format_table, record, write_result  # noqa: E402

from repro import (  # noqa: E402
    AortaEngine,
    EngineConfig,
    Environment,
    PanTiltZoomCamera,
    Point,
)
from repro.actions.request import ActionRequest  # noqa: E402
from repro.devices.failures import FailureInjector  # noqa: E402
from repro.overload import OverloadPolicy, TierRate  # noqa: E402

from tests.obs.golden import diff_dumps, dump_engine, load_golden  # noqa: E402
from tests.obs.scenarios import snapshot_scenario  # noqa: E402

JSON_PATH = os.path.join(os.path.dirname(__file__), "..",
                         "BENCH_overload.json")

#: The paper's E10 scale: n requests stormed over m devices. The smoke
#: size keeps the same n/m ratio so one deadline set fits both.
GATE_SIZE = (400, 100)
SMOKE_SIZE = (48, 12)

#: Service-time ballpark of one photo() used to size the storm at
#: roughly 3x fleet capacity (empirically ~0.7 s per request).
SERVICE_ESTIMATE_S = 0.7
OVERLOAD_FACTOR = 3.0

#: Required service fraction of tier-3 requests inside the measurement
#: horizon, overload on.
HIGH_PRIORITY_TARGET = 0.95

#: Deadlines by tier (seconds after arrival). Tier 3 is pure priority
#: (no deadline, never shed); tiers 1-2 carry deadlines the shedder
#: enforces under pressure.
DEADLINES = {3: None, 2: 1.5, 1: 3.0}

#: Seconds of run after the storm ends. Deliberately tight: the fleet
#: cannot absorb a 3x backlog in this window, so what gets serviced is
#: what the engine chose to do first — the measurement that separates
#: priority-aware shedding from FIFO.
DRAIN_S = 3.0


def storm_policy(n: int) -> OverloadPolicy:
    """Queue bound and watermarks scaled to the storm size.

    The limit leaves headroom above the storm's tier-3 population
    (n/4): bounded-queue eviction always finds a lower tier to drop, so
    backpressure never turns on the protected tier itself.
    """
    limit = max(16, (3 * n) // 8)
    return OverloadPolicy(
        tier_rates={1: TierRate(rate=2.0, burst=4.0)},
        queue_limit=limit,
        shed_high_watermark=max(2, (3 * limit) // 4),
        shed_low_watermark=max(1, limit // 4),
    )


def run_storm(n: int, m: int, *, overload: bool,
              observability=None) -> AortaEngine:
    """One n-request storm over m cameras; returns the finished engine."""
    env = Environment()
    kwargs = {}
    if observability is not None:
        kwargs["observability"] = observability
    if overload:
        kwargs.update(overload=True, overload_policy=storm_policy(n))
    engine = AortaEngine(env, config=EngineConfig(**kwargs), seed=0)
    for i in range(m):
        engine.add_device(PanTiltZoomCamera(
            env, f"cam{i + 1}", Point(20.0 * i, 0.0),
            facing=0.0, view_half_angle=170.0, view_range=1000.0))
    operator = engine.dispatcher.operator_for(engine.actions.get("photo"))

    def make_request(index: int, now: float) -> ActionRequest:
        if index % 4 == 0:
            tier = 3
        elif index % 4 == 1:
            tier = 2
        else:
            tier = 1
        # Camera assignment decoupled from the tier: within each group
        # of four consecutive indices (one full tier cycle), the four
        # requests land on cameras offset by 0/7/14/21 from a rotating
        # base. Any assignment that is a plain function of index mod m
        # risks pinning each camera to a single tier (whenever the tier
        # cycle divides the camera count), which would make priority
        # ordering vacuous by construction.
        start = (index // 4 + 7 * (index % 4)) % m
        candidates = tuple(
            f"cam{(start + j) % m + 1}" for j in range(4))
        deadline = DEADLINES[tier]
        return ActionRequest(
            action_name="photo",
            arguments={"target": Point(20.0 * start + 1.0, 5.0),
                       "directory": "photos/storm"},
            created_at=now, candidates=candidates,
            request_id=f"storm{index:03d}", priority=tier,
            deadline=None if deadline is None else now + deadline)

    # Storm at ~3x capacity: the fleet can absorb about
    # m / SERVICE_ESTIMATE_S requests per second.
    rate = OVERLOAD_FACTOR * m / SERVICE_ESTIMATE_S
    duration = n / rate
    injector = FailureInjector(env)
    injector.schedule_request_storm(
        lambda request: engine.dispatcher.submit(operator, request),
        make_request, start=1.0, duration=duration, rate=rate)
    engine.start()
    engine.run(until=1.0 + duration + DRAIN_S)
    return engine


def high_priority_served(engine: AortaEngine, n: int) -> dict:
    """Service fraction of the storm's tier-3 requests at the horizon.

    The denominator is every tier-3 request the storm offered.
    Counted from the trace (a request is traced ``request_serviced``
    the moment it completes) because the horizon deliberately cuts the
    final batch mid-flight — under 3x overload the backlog does not
    drain, so what made it through is what the engine prioritized.
    """
    tier3_ids = {f"storm{index:03d}" for index in range(n)
                 if index % 4 == 0}
    served = sum(1 for record in engine.tracer
                 if record.kind == "request_serviced"
                 and record.fields.get("request") in tier3_ids)
    total = len(tier3_ids)
    return {
        "total": total,
        "serviced": served,
        "fraction": served / total if total else 0.0,
    }


def canonical(dump: dict) -> str:
    return json.dumps(dump, sort_keys=True)


def check_off_identical() -> dict:
    """Knob-absent vs knob-off vs the checked-in snapshot golden."""
    unset = canonical(dump_engine(snapshot_scenario(observability=True)))
    off = canonical(dump_engine(snapshot_scenario(observability=True,
                                                  overload=False)))
    golden = load_golden("snapshot_obs")
    golden_differences = diff_dumps(golden, json.loads(off)) \
        if golden is not None else ["golden file missing"]
    return {
        "unset_equals_off": unset == off,
        "matches_golden": not golden_differences,
        "golden_differences": golden_differences[:5],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="smaller storm (60 requests x 12 cameras)")
    args = parser.parse_args(argv)

    n, m = SMOKE_SIZE if args.smoke else GATE_SIZE
    limit = storm_policy(n).queue_limit

    print("checking off-path invariance ...", flush=True)
    off_identical = check_off_identical()

    print(f"running {n}x{m} storm, overload on (run 1) ...", flush=True)
    guarded = run_storm(n, m, overload=True)
    print(f"running {n}x{m} storm, overload on (run 2) ...", flush=True)
    guarded_again = run_storm(n, m, overload=True)
    print(f"running {n}x{m} storm, overload off (baseline) ...",
          flush=True)
    baseline = run_storm(n, m, overload=False)

    stats = guarded.statistics()
    peak_depths = {
        name: op.peak_pending
        for name, op in sorted(guarded.dispatcher._operators.items())}
    bounded = all(depth <= limit for depth in peak_depths.values())

    on_path = high_priority_served(guarded, n)
    off_path = high_priority_served(baseline, n)
    deterministic = canonical(dump_engine(guarded)) \
        == canonical(dump_engine(guarded_again))

    gates = {
        "off_identical": off_identical["unset_equals_off"]
        and off_identical["matches_golden"],
        "bounded_queues": bounded,
        "high_priority_served": on_path["fraction"]
        >= HIGH_PRIORITY_TARGET,
        "baseline_degrades": off_path["fraction"] < HIGH_PRIORITY_TARGET,
        "deterministic": deterministic,
    }

    payload = {
        "benchmark": "bench_overload",
        "smoke": args.smoke,
        "scenario": {
            "storm": f"n={n} photo() requests over m={m} cameras at "
                     f"~{OVERLOAD_FACTOR:.0f}x fleet capacity, tier mix "
                     f"25/25/50 (3/2/1), deadlines {DEADLINES}",
            "policy": {
                "queue_limit": limit,
                "tier1_rate": 2.0,
                "shed_interval": 0.5,
            },
        },
        "off_identical": off_identical,
        "bounded_queues": {
            "limit": limit,
            "peak_pending": peak_depths,
        },
        "high_priority": {
            "target": HIGH_PRIORITY_TARGET,
            "overload_on": on_path,
            "overload_off": off_path,
        },
        "overload_stats": {
            key: value for key, value in stats.items()
            if key.startswith("overload_") or key == "requests_shed"},
        "deterministic": deterministic,
    }
    exit_code = write_result(JSON_PATH, payload, gates)

    verdict = "PASS" if exit_code == 0 else "FAIL"
    table = format_table(
        ("mode", "tier-3 served", "fraction"),
        [("overload on", f"{on_path['serviced']}"
          f"/{on_path['total']}", on_path["fraction"]),
         ("overload off", f"{off_path['serviced']}"
          f"/{off_path['total']}", off_path["fraction"])])
    body = (
        f"off path: unset==off {off_identical['unset_equals_off']}, "
        f"matches snapshot golden {off_identical['matches_golden']}\n"
        f"bounded queues: peak {max(peak_depths.values(), default=0)} "
        f"<= limit {limit}: {bounded}\n"
        f"{table}\n"
        f"shed: {stats.get('requests_shed', 0)}, rejected: "
        f"{stats.get('overload_rejected_requests', 0)}, admitted: "
        f"{stats.get('overload_admitted_requests', 0)}\n"
        f"deterministic: {deterministic}\n"
        f"verdict: {verdict}\n"
        f"JSON: {os.path.relpath(JSON_PATH)}")
    record("overload", "Overload control under a request storm", body,
           smoke=args.smoke)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
