"""Sharded-coordinator benchmark: band-storm scaling and identity.

Drives one fleet-wide band-storm workload — R regions of wide-range
cameras plus one sensor mote each, every camera covering every mote —
through :class:`~repro.shard.ShardedEngine` at two widths:

* ``shards=1`` — the whole fleet on a single engine. Every band event
  produces a request whose candidate set is *all* cameras, so each
  dispatch pays probe + cost-estimate work proportional to the fleet.
* ``shards=R`` — one region per shard. Each shard's continuous
  executor sees only its own mote and cameras, so the same event costs
  1/R of the candidate work.

The gates, written to ``BENCH_sharding.json``:

* **throughput_scaling** — serviced throughput (requests serviced per
  wall-clock second of ``run()``) at 8 shards is >= 3x the 1-shard
  figure on the 5000-camera storm. Full runs only; in ``--smoke`` the
  ratio is measured and recorded but not gated.
* **workload_conserved** — both widths service exactly one request per
  injected band event: sharding changes the cost, not the answer.
* **single_shard_identity** — a 1-shard fleet's normalized dump of the
  Figure-1 snapshot scenario is byte-identical to the plain
  unsharded engine's (the coordinator's delegation path is inert).
* **deterministic** — two identical sharded storm runs produce
  byte-identical per-shard dumps.
* **parallel_identity** — every worker fleet's per-shard dumps are
  byte-identical to the in-process fleet's at the same width.
* **parallel_deterministic** — identical worker-fleet runs produce
  byte-identical per-shard dumps.
* **parallel_one_round_per_run** — the storm runs with overload off,
  so its shards share no ledger and every worker fleet takes exactly
  one round for its one ``run()`` call (a count that repeats exactly,
  gated in ``--smoke`` too).
* **parallel_wallclock_speedup** — ``run()`` wall-clock with process
  workers is >= 2x faster than the in-process fleet at the same
  width: the median ratio over alternating in-process / worker pairs
  (5 on full runs), recorded with its quartiles and per-shard
  busy/barrier-wait breakdowns on every host, gated only on full runs
  on hosts with >= 4 CPU cores.

The parallel section always runs on full runs; ``--smoke`` includes it
only with ``--parallel`` (the CI parallel-smoke leg).

Usage::

    PYTHONPATH=src python benchmarks/bench_sharding.py \
        [--smoke] [--shards N] [--parallel] [--parallel-backend B]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.dirname(__file__))

from _common import format_table, record, write_result  # noqa: E402

from repro import (  # noqa: E402
    DeviceSpec,
    EngineConfig,
    PanTiltZoomCamera,
    Point,
    RegionPlacement,
    SensorMote,
    SensorStimulus,
    ShardedEngine,
)
from repro.core.config import PARALLEL_BACKENDS  # noqa: E402

from tests.obs.golden import diff_dumps, dump_engine  # noqa: E402
from tests.obs.scenarios import snapshot_scenario  # noqa: E402
from tests.shard.scenarios import sharded_snapshot_scenario  # noqa: E402

JSON_PATH = os.path.join(os.path.dirname(__file__), "..",
                         "BENCH_sharding.json")

#: The gate configuration: a 5000-camera fleet split eight ways.
FULL_SHARDS = 8
FULL_CAMERAS = 5000
SMOKE_CAMERAS = 192

#: Band events per region. Every event is one stimulus on the region's
#: mote, one query firing, one serviced photo — at both widths.
FULL_EVENTS_PER_REGION = 4
SMOKE_EVENTS_PER_REGION = 2

#: Required serviced-throughput ratio, 8 shards vs 1, full runs.
TARGET_SCALING = 3.0

#: Required run() wall-clock ratio, in-process fleet vs process-worker
#: fleet, at the sharded width on the full storm.
TARGET_PARALLEL_SPEEDUP = 2.0

#: Cores below which the speedup gate is recorded but not enforced: 2x
#: needs more than two cores' worth of overlap (identity, determinism
#: and the round count are gated regardless).
MIN_SPEEDUP_CORES = 4

#: Alternating in-process / worker pairs behind the recorded ratio.
#: Smoke keeps two: determinism needs a second worker run.
FULL_PARALLEL_PAIRS = 5
SMOKE_PARALLEL_PAIRS = 2

#: Storm cadence: events inside a region are EVENT_PERIOD apart;
#: regions are staggered by REGION_STAGGER so the fleet sees a rolling
#: storm rather than R simultaneous detections.
EVENT_PERIOD = 10.0
REGION_STAGGER = 0.25
STIMULUS_SECONDS = 3.0
DRAIN = 15.0

BAND_AQ = '''CREATE AQ band_storm AS
    SELECT photo(c.ip, s.loc, "photos/storm")
    FROM sensor s, camera c
    WHERE s.accel_x > 500 AND coverage(c.id, s.loc)'''


def build_fleet(shards: int, n_regions: int, cameras_per_region: int,
                *, parallel: bool = False,
                backend: str = "process") -> ShardedEngine:
    """The storm fleet: identical devices regardless of the width.

    Cameras have effectively unbounded range, so in the 1-shard engine
    every camera covers every mote and each request carries the whole
    fleet as candidates; per-region shards carry only their own
    cameras. Region r maps to shard ``r % shards`` — the same region
    layout collapses onto one shard for the baseline. Factories are
    :class:`~repro.DeviceSpec` values, so the identical builder drives
    serial fleets and parallel worker fleets.
    """
    assignments = {}
    for region in range(n_regions):
        for k in range(cameras_per_region):
            assignments[f"cam{region:02d}_{k:04d}"] = region % shards
        assignments[f"mote{region:02d}"] = region % shards
    placement = RegionPlacement(shards, assignments)
    config = EngineConfig(shards=shards, probing=False,
                          parallel=parallel, parallel_backend=backend)
    fleet = ShardedEngine(config=config, placement=placement, seed=0)
    for region in range(n_regions):
        base = 100.0 * region
        for k in range(cameras_per_region):
            fleet.add_device(
                f"cam{region:02d}_{k:04d}",
                DeviceSpec(PanTiltZoomCamera, f"cam{region:02d}_{k:04d}",
                           Point(base + 0.01 * k, 0.0), facing=0.0,
                           view_half_angle=170.0, view_range=1e9))
        fleet.add_device(
            f"mote{region:02d}",
            DeviceSpec(SensorMote, f"mote{region:02d}",
                       Point(base + 5.0, 3.0), noise_amplitude=0.0))
    fleet.execute(BAND_AQ)
    return fleet


def run_storm(shards: int, n_regions: int, cameras_per_region: int,
              events_per_region: int, *, parallel: bool = False,
              backend: str = "process") -> dict:
    """One full storm at the given width; wall-clock covers run()."""
    fleet = build_fleet(shards, n_regions, cameras_per_region,
                        parallel=parallel, backend=backend)
    for region in range(n_regions):
        for event in range(events_per_region):
            fleet.inject(
                f"mote{region:02d}",
                SensorStimulus(
                    "accel_x",
                    start=2.0 + EVENT_PERIOD * event
                    + REGION_STAGGER * region,
                    duration=STIMULUS_SECONDS, magnitude=850.0))
    fleet.start()
    horizon = 2.0 + EVENT_PERIOD * events_per_region + DRAIN
    started = time.perf_counter()
    fleet.run(until=horizon)
    wall_s = time.perf_counter() - started
    stats = fleet.statistics()
    serviced = stats["requests_serviced"]
    result = {
        "shards": shards,
        "parallel": parallel,
        "devices": stats["devices"],
        "serviced": serviced,
        "wall_s": round(wall_s, 4),
        "throughput_per_s": round(serviced / wall_s, 4) if wall_s > 0
        else float("inf"),
        "dumps": [json.dumps(dump, sort_keys=True)
                  for dump in fleet.shard_dumps()],
    }
    if parallel:
        result["backend"] = backend
        result["rounds"] = fleet.round_breakdown()
    fleet.close()
    return result


def measure_parallel(backend: str, pairs: int, reference_dumps: list,
                     *storm: int) -> dict:
    """Worker fleet vs in-process fleet over alternating pairs.

    Each pair is one in-process and one worker storm (``storm`` is
    :func:`run_storm`'s positional arguments), the order swapping from
    pair to pair so neither side always runs second; the ratio of a
    pair is in-process wall over worker wall. Returns the per-pair
    numbers, their median and quartiles, and what every worker run had
    to get right: dumps equal to ``reference_dumps`` (an in-process
    run's) and to each other, and one round for its one ``run()``.
    """
    walls: dict = {False: [], True: []}
    first = first_dumps = None
    identical = deterministic = one_round = True
    for pair in range(pairs):
        for parallel in ((False, True), (True, False))[pair % 2]:
            side = f"{backend} workers" if parallel else "in-process"
            print(f"  pair {pair + 1}/{pairs}: {side} ...", flush=True)
            run = run_storm(*storm, parallel=parallel, backend=backend)
            walls[parallel].append(run["wall_s"])
            dumps = run.pop("dumps")
            if not parallel:
                continue
            if first is None:
                first, first_dumps = run, dumps
            identical = identical and dumps == reference_dumps
            deterministic = deterministic and dumps == first_dumps
            one_round = one_round and run["rounds"]["rounds"] == 1
    ratios = [serial / worker if worker else float("inf")
              for serial, worker in zip(walls[False], walls[True])]
    low, speedup, high = statistics.quantiles(ratios, n=4,
                                              method="inclusive")
    return {
        "backend": backend,
        "identical_to_serial": identical,
        "deterministic": deterministic,
        "one_round_per_run": one_round,
        "pairs": pairs,
        "serial_wall_s": statistics.median(walls[False]),
        "parallel_wall_s": statistics.median(walls[True]),
        "serial_walls_s": walls[False],
        "parallel_walls_s": walls[True],
        "pair_speedups": [round(ratio, 3) for ratio in ratios],
        "wallclock_speedup": round(speedup, 3),
        "wallclock_speedup_quartiles": [round(low, 3), round(high, 3)],
        "rounds": first.pop("rounds"),
        "run": first,
    }


def check_single_shard_identity() -> dict:
    """Figure-1 snapshot: 1-shard fleet vs the plain engine."""
    plain = snapshot_scenario(observability=True)
    fleet = sharded_snapshot_scenario(observability=True)
    differences = diff_dumps(dump_engine(plain), dump_engine(fleet))
    return {"identical": not differences,
            "differences": differences[:5]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small fleet; scaling measured, not gated")
    parser.add_argument("--shards", type=int, default=FULL_SHARDS,
                        help="sharded width of the storm (default 8)")
    parser.add_argument("--parallel", action="store_true",
                        help="include the parallel-worker section in "
                             "--smoke (full runs always include it)")
    parser.add_argument("--parallel-backend", choices=PARALLEL_BACKENDS,
                        default="process",
                        help="worker backend for the parallel section")
    args = parser.parse_args(argv)
    if args.shards < 2:
        parser.error("--shards must be >= 2 (the baseline is 1)")

    n_regions = args.shards
    total = SMOKE_CAMERAS if args.smoke else FULL_CAMERAS
    cameras_per_region = max(1, total // n_regions)
    events = SMOKE_EVENTS_PER_REGION if args.smoke \
        else FULL_EVENTS_PER_REGION
    expected = n_regions * events

    print("checking 1-shard delegation identity ...", flush=True)
    identity = check_single_shard_identity()

    label = f"{n_regions * cameras_per_region} cameras, {n_regions} regions"
    print(f"running {label}, shards=1 (baseline) ...", flush=True)
    single = run_storm(1, n_regions, cameras_per_region, events)
    print(f"running {label}, shards={args.shards} (run 1) ...", flush=True)
    sharded = run_storm(args.shards, n_regions, cameras_per_region, events)
    print(f"running {label}, shards={args.shards} (run 2) ...", flush=True)
    repeat = run_storm(args.shards, n_regions, cameras_per_region, events)

    deterministic = sharded["dumps"] == repeat["dumps"]

    parallel_section = None
    if args.parallel or not args.smoke:
        backend = args.parallel_backend
        pairs = SMOKE_PARALLEL_PAIRS if args.smoke else FULL_PARALLEL_PAIRS
        print(f"running {label}, shards={args.shards}: {pairs} "
              f"alternating in-process / {backend}-worker pairs ...",
              flush=True)
        parallel_section = measure_parallel(
            backend, pairs, sharded["dumps"], args.shards, n_regions,
            cameras_per_region, events)
        cores = os.cpu_count() or 1
        speedup_gated = not args.smoke and cores >= MIN_SPEEDUP_CORES
        parallel_section.update({
            "target_speedup": TARGET_PARALLEL_SPEEDUP,
            "cores": cores,
            "speedup_gated": speedup_gated,
            "speedup_gate_skipped_because": None if speedup_gated else (
                "smoke run" if args.smoke else
                f"host has {cores} core(s); the >= "
                f"{TARGET_PARALLEL_SPEEDUP:.0f}x gate is enforced on "
                f">= {MIN_SPEEDUP_CORES}-core hosts only"),
        })

    for run in (single, sharded, repeat):
        run.pop("dumps")
    scaling = (sharded["throughput_per_s"] / single["throughput_per_s"]
               if single["throughput_per_s"] else float("inf"))

    gates = {
        "workload_conserved": single["serviced"] == expected
        and sharded["serviced"] == expected,
        "single_shard_identity": identity["identical"],
        "deterministic": deterministic,
    }
    if not args.smoke:
        # The scaling gate needs the full-size fleet: at smoke scale
        # fixed simulation overhead drowns the candidate-set savings.
        gates["throughput_scaling"] = scaling >= TARGET_SCALING
    if parallel_section is not None:
        # Identity and determinism hold on any hardware; the wall-clock
        # speedup additionally needs cores and the full-size storm.
        gates["parallel_identity"] = \
            parallel_section["identical_to_serial"]
        gates["parallel_deterministic"] = \
            parallel_section["deterministic"]
        gates["parallel_one_round_per_run"] = \
            parallel_section["one_round_per_run"]
        if parallel_section["speedup_gated"]:
            gates["parallel_wallclock_speedup"] = \
                parallel_section["wallclock_speedup"] \
                >= TARGET_PARALLEL_SPEEDUP

    payload = {
        "benchmark": "bench_sharding",
        "smoke": args.smoke,
        "workload": (f"{n_regions * cameras_per_region} wide-range "
                     f"cameras + {n_regions} motes across {n_regions} "
                     f"regions; {events} band events per region every "
                     f"{EVENT_PERIOD}s, staggered {REGION_STAGGER}s per "
                     f"region; probing off"),
        "expected_serviced": expected,
        "single_shard": single,
        "sharded": sharded,
        "scaling": {
            "ratio": round(scaling, 3),
            "target": TARGET_SCALING,
            "gated": not args.smoke,
        },
        "single_shard_identity": identity,
        "deterministic": deterministic,
        "parallel": parallel_section,
    }
    exit_code = write_result(JSON_PATH, payload, gates)

    verdict = "PASS" if exit_code == 0 else "FAIL"
    rows = [
        (f"shards=1", single["devices"], single["serviced"],
         single["wall_s"], single["throughput_per_s"]),
        (f"shards={args.shards}", sharded["devices"],
         sharded["serviced"], sharded["wall_s"],
         sharded["throughput_per_s"]),
    ]
    parallel_lines = ""
    if parallel_section is not None:
        par = parallel_section["run"]
        rows.append((
            f"shards={args.shards}/{parallel_section['backend']}",
            par["devices"], par["serviced"], par["wall_s"],
            par["throughput_per_s"]))
        waits = ", ".join(
            f"s{entry['shard']}={entry['barrier_wait_s']:.2f}s"
            for entry in parallel_section["rounds"]["per_shard"])
        quartiles = parallel_section["wallclock_speedup_quartiles"]
        parallel_lines = (
            f"parallel identical to serial: "
            f"{parallel_section['identical_to_serial']}; deterministic: "
            f"{parallel_section['deterministic']}\n"
            f"parallel wall-clock speedup: "
            f"{parallel_section['wallclock_speedup']:.2f}x median of "
            f"{parallel_section['pairs']} alternating pairs, quartiles "
            f"{quartiles[0]:.2f}-{quartiles[1]:.2f} (target "
            f"{TARGET_PARALLEL_SPEEDUP:.0f}x"
            + (")" if parallel_section["speedup_gated"] else
               f", not gated: "
               f"{parallel_section['speedup_gate_skipped_because']})")
            + f"\none round per run() on every worker fleet: "
              f"{parallel_section['one_round_per_run']}"
              f"\nbarrier waits over "
              f"{parallel_section['rounds']['rounds']} round(s): "
              f"{waits}\n")
    table = format_table(
        ("width", "devices", "serviced", "wall s", "req/s"), rows)
    body = (
        f"{table}\n"
        f"scaling: {scaling:.2f}x (target {TARGET_SCALING:.0f}x"
        f"{', not gated in smoke' if args.smoke else ''})\n"
        f"1-shard delegation identical to plain engine: "
        f"{identity['identical']}\n"
        f"deterministic repeat: {deterministic}\n"
        f"{parallel_lines}"
        f"verdict: {verdict}\n"
        f"JSON: {os.path.relpath(JSON_PATH)}")
    record("sharding", "Sharded coordinator: band-storm scaling", body,
           smoke=args.smoke)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
