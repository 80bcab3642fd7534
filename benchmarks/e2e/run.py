"""End-to-end benchmark: sensor row to serviced action, per layer.

Two ways to run it, from the repository root::

    python3 benchmarks/e2e/run.py [--seed N] [--workload NAME]
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S \\
        --trace 0|1

The first form is the full run: for each workload it starts
``--reps`` untraced repetitions and one traced repetition, each in a
fresh interpreter (repeating inside one interpreter drifts with heap
growth), prints every metric by name with its unit as median [min,
max], checks that the outcome digest is identical across repetitions,
and appends one line to ``history.jsonl``. ``--profile paper`` and
``--without FLAG`` print the same table for ablations and write
nowhere; ``--smoke`` shrinks every workload to a self-check.

The second form (``--trace`` given) is ONE repetition in this
interpreter — what the full run starts as children and what
``BENCHMARK.json`` names as the benchmark command. Its last line of
output is one JSON object: ``correct``, ``attempted`` (injected
events), ``failed`` (events whose fate the output checks could not
account for) and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

See README.md in this directory for what each workload and metric is
for and how to read the traced table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from harness import TUNED_FLAGS, have_numpy, repetition  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

HISTORY = os.path.join(HERE, "history.jsonl")
DEFAULT_SEED = 20050610
DEFAULT_SECONDS = 15
SMOKE_SECONDS = 1

UNITS = {
    "serviced_per_wall_s": "req/s",
    "action_latency_p50_vs": "virtual_s",
    "action_latency_p99_vs": "virtual_s",
    "events_serviced_frac": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: End-to-end metrics that are virtual-time or counts: they must repeat
#: exactly between repetitions of one seed.
EXACT = ("action_latency_p50_vs", "action_latency_p99_vs",
         "events_serviced_frac")

#: Attributed-self-time groups printed under the traced table, to show
#: that the workloads separate the layers.
GROUPS = {
    "query+continuous": ("query.index_match_self_s", "query.function_self_s",
                         "continuous.self_s"),
    "scan+network": ("comm.scan_self_s", "network.transport_self_s"),
    "probe": ("comm.probe_self_s",),
    "schedule+cost": ("scheduling.self_s", "cost.estimate_self_s"),
    "locks": ("sync.lock_self_s",),
    "dispatcher": ("dispatcher.self_s",),
    "devices": ("devices.execute_self_s",),
    "overload": ("overload.offer_self_s",),
    "sim kernel": ("sim.kernel_self_s",),
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if "_vs" in name:
        return "virtual_s"
    if name.endswith(("_s", "_s_max")):
        return "s"
    if name.endswith(("_frac", "_rate")) or ".utilization_" in name:
        return "fraction"
    if name.endswith(("_skew", "_per_match", "_mean")):
        return "ratio"
    return "count"


def fingerprint(seed: int, flags_absent: List[str]) -> Dict[str, Any]:
    """Where and on what these numbers were taken."""
    numpy_version: Optional[str] = None
    if have_numpy():
        import numpy
        numpy_version = numpy.__version__
    try:
        commit: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed,
        "flags_absent": flags_absent,
    }


# ----------------------------------------------------------------------
# One repetition in this interpreter (the contract command)
# ----------------------------------------------------------------------
def _terminated(signum: int, _frame: Any) -> None:
    raise SystemExit(128 + signum)


def run_one(args: argparse.Namespace) -> int:
    # A TERM unwinds like any exception, so the repetition's ``finally``
    # still stops the fleet's workers and waits for them.
    signal.signal(signal.SIGTERM, _terminated)
    job = build(args.workload[0], args.seed, args.seconds, args.smoke)
    result = repetition(job, args.seed, profile=args.profile,
                        without=args.without, traced=bool(args.trace),
                        observability=args.observability)
    shown = result["per_layer"] if args.trace else result["end_to_end"]
    print(f"workload {result['workload']}  seed {args.seed}  profile "
          f"{args.profile}  without {args.without or '-'}  "
          f"flags_absent {result['flags_absent'] or '-'}")
    for name, value in shown.items():
        print(f"  {name:38s} {value:16.6f} {unit_of(name)}")
    print(f"  injected {result['injected']}  " + "  ".join(
        f"{state} {count}" for state, count in result["states"].items())
        + f"  latency_samples {result['latency_samples']}  "
        f"run_wall_s {result['run_wall_s']:.3f}  "
        f"digest {result['digest']}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print("detail " + json.dumps(result))
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["injected"],
        "failed": len(result["problems"]),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in shown.items()},
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# The full run: fresh-interpreter repetitions, medians, history
# ----------------------------------------------------------------------
def _child(args: argparse.Namespace, workload: str, trace: int,
           observability: bool = False) -> Dict[str, Any]:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--profile", args.profile]
    for flag in args.without:
        command += ["--without", flag]
    if args.smoke:
        command.append("--smoke")
    if observability:
        command.append("--observability")
    done = subprocess.run(command, capture_output=True, text=True)
    detail = [line for line in done.stdout.splitlines()
              if line.startswith("detail ")]
    if not detail:
        raise SystemExit(f"{workload}: repetition printed no result "
                         f"(exit {done.returncode})\n{done.stdout}"
                         f"{done.stderr}")
    return json.loads(detail[-1][len("detail "):])


def _spread(values: List[float]) -> str:
    return (f"{statistics.median(values):14.6f} "
            f"[{min(values):.6f}, {max(values):.6f}]")


def run_workload(args: argparse.Namespace, workload: str
                 ) -> Dict[str, Any]:
    """All repetitions of one workload; prints its tables."""
    untraced = [_child(args, workload, 0) for _ in range(args.reps)]
    traced = _child(args, workload, 1)
    problems = [problem for result in untraced + [traced]
                for problem in result["problems"]]
    digests = {result["digest"] for result in untraced + [traced]}
    if len(digests) != 1:
        problems.append(f"outcome digest differs between repetitions "
                        f"(traced included): {sorted(digests)}")
    first = untraced[0]
    print(f"\n== {workload}: {first['injected']} events, "
          + ", ".join(f"{count} {state}"
                      for state, count in first["states"].items())
          + f"; {first['latency_samples']} latency samples; digest "
          f"{first['digest']} ==")
    print(f"  end to end, median [min, max] of {args.reps} untraced "
          f"fresh-interpreter repetitions")
    medians: Dict[str, float] = {}
    for name in first["end_to_end"]:
        values = [result["end_to_end"][name] for result in untraced]
        medians[name] = statistics.median(values)
        print(f"  {name:38s} {_spread(values)} {unit_of(name)}")
        if name in EXACT and len(set(values)) != 1:
            problems.append(f"{name} differs between repetitions of "
                            f"one seed: {values}")
    print(f"  {'run_wall_s':38s} "
          f"{_spread([r['run_wall_s'] for r in untraced])} s")

    # Overheads compare pace-normalised walls, like the throughput.
    paced = statistics.median(r["run_paced_s"] for r in untraced)
    layers = dict(traced["per_layer"])
    layers["bench.trace_overhead_frac"] = traced["run_paced_s"] / paced - 1.0
    if workload == "mixed_faulty" and not args.smoke:
        observed = _child(args, workload, 0, observability=True)
        problems += observed["problems"]
        layers["obs.overhead_frac"] = observed["run_paced_s"] / paced - 1.0
    print("  per layer, one traced repetition")
    for name, value in layers.items():
        print(f"  {name:38s} {value:14.6f} {unit_of(name)}")
    attributed = sum(layers[name] for names in GROUPS.values()
                     for name in names)
    if attributed > 0:
        print("  share of attributed self time: " + "  ".join(
            f"{group} {sum(layers[n] for n in names) / attributed:.1%}"
            for group, names in GROUPS.items()))
    if traced["trace_absent"]:
        print(f"  trace_absent: {traced['trace_absent']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    return {"workload": workload, "end_to_end": medians,
            "per_layer": layers, "states": first["states"],
            "injected": first["injected"], "digest": first["digest"],
            "flags_absent": first["flags_absent"], "problems": problems}


def run_full(args: argparse.Namespace) -> int:
    started = time.time()
    results = [run_workload(args, workload) for workload in args.workload]
    by_name = {result["workload"]: result for result in results}
    if "dispatch_heavy" in by_name and "fleet_sharded" in by_name:
        speedup = (
            by_name["fleet_sharded"]["end_to_end"]["serviced_per_wall_s"]
            / by_name["dispatch_heavy"]["end_to_end"]["serviced_per_wall_s"])
        by_name["fleet_sharded"]["per_layer"][
            "shard.speedup_vs_single"] = speedup
        print(f"\n  shard.speedup_vs_single {speedup:.4f} ratio "
              f"(fleet_sharded / dispatch_heavy serviced_per_wall_s)")
    stamp = fingerprint(args.seed, results[0]["flags_absent"])
    print(f"\nfingerprint: {json.dumps(stamp, sort_keys=True)}")
    failed = [result["workload"] for result in results
              if result["problems"]]
    ablation = args.profile != "tuned" or bool(args.without)
    if not (args.smoke or ablation or failed):
        with open(HISTORY, "a") as handle:
            handle.write(json.dumps({
                "at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                    time.gmtime(started)),
                "fingerprint": stamp, "seconds": args.seconds,
                "reps": args.reps, "workloads": results,
            }, sort_keys=True) + "\n")
        print(f"appended to {os.path.relpath(HISTORY, ROOT)}")
    if failed:
        print(f"FAILED output checks: {failed}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="wall seconds one run() is sized for "
                             f"(default {DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run ONE repetition here: 0 prints the "
                             "end-to-end metrics, 1 the per-layer ones")
    parser.add_argument("--reps", type=int, default=3,
                        help="untraced repetitions per workload, full run")
    parser.add_argument("--profile", choices=("tuned", "paper"),
                        default="tuned",
                        help="tuned: every fast path on; paper: all off")
    parser.add_argument("--without", action="append", default=[],
                        choices=TUNED_FLAGS, metavar="FLAG",
                        help="tuned minus one fast path (repeatable)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fleets, a few seconds, writes nowhere")
    parser.add_argument("--observability", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace runs one repetition: name one --workload")
        return run_one(args)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    args.workload = args.workload or list(WORKLOADS)
    return run_full(args)


if __name__ == "__main__":
    raise SystemExit(main())
