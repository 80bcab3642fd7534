"""Observability overhead and invariance benchmark.

Three gates on the metrics + span layer:

* **off-identical** — the fault-tolerance scenario run with the
  observability knob absent, and again with it explicitly off, must
  produce byte-identical normalized dumps, both equal to the
  pre-instrumentation golden capture (``tests/obs/goldens``). The
  default-off path is inert, not merely quiet.
* **overhead** — with observability *on*, scheduling and executing the
  paper's E10-scale batch (n=400 requests, m=100 devices, SRFAE) costs
  at most 10% more wall-clock than with it off.
* **deterministic** — every measured configuration dumps identically
  across two runs (traces, statistics, metrics, spans).

Writes a machine-readable ``BENCH_observability.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_observability.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.dirname(__file__))

from _common import record, write_result  # noqa: E402

from repro.core.tracing import EngineTracer  # noqa: E402
from repro.obs import Observability  # noqa: E402
from repro.scheduling import SrfaeScheduler  # noqa: E402
from repro.scheduling.executor import execute_schedule  # noqa: E402
from repro.sim import Environment  # noqa: E402

from bench_perf_regression import engine_oracle_problem  # noqa: E402
from tests.obs.golden import diff_dumps, dump_engine, load_golden  # noqa: E402
from tests.obs.scenarios import ft_scenario  # noqa: E402

JSON_PATH = os.path.join(os.path.dirname(__file__), "..",
                         "BENCH_observability.json")

#: The paper's E10 scale; the overhead gate runs here.
GATE_SIZE = (400, 100)
SMOKE_SIZE = (50, 20)

#: Accepted on-vs-off wall-clock overhead of the scheduling scenario.
MAX_OVERHEAD = 0.10


def canonical(dump: dict) -> str:
    """The byte representation compared across runs."""
    return json.dumps(dump, sort_keys=True)


def check_off_identical() -> dict:
    """Knob-absent vs knob-off vs pre-instrumentation golden."""
    unset = canonical(dump_engine(ft_scenario(observability=None)))
    off = canonical(dump_engine(ft_scenario(observability=False)))
    golden = load_golden("pre_instrumentation_ft")
    golden_differences = diff_dumps(golden, json.loads(off)) \
        if golden is not None else ["golden file missing"]
    return {
        "unset_equals_off": unset == off,
        "matches_pre_instrumentation_golden": not golden_differences,
        "golden_differences": golden_differences[:5],
    }


def check_on_deterministic() -> dict:
    """Two observability-on runs must dump identically."""
    first = canonical(dump_engine(ft_scenario(observability=True)))
    second = canonical(dump_engine(ft_scenario(observability=True)))
    return {"identical": first == second, "dump_bytes": len(first)}


def time_scheduling_scenario(n: int, m: int, *, observability: bool,
                             repeats: int) -> float:
    """Best-of wall-clock of scheduling + executing one n x m batch."""
    best = float("inf")
    for _ in range(repeats):
        problem = engine_oracle_problem(n, m, seed=0)
        if observability:
            obs = Observability(Environment(), tracer=EngineTracer(),
                                enabled=True)
        else:
            obs = None
        started = time.perf_counter()
        schedule = SrfaeScheduler(0).schedule(problem)
        execute_schedule(problem, schedule, obs=obs)
        best = min(best, time.perf_counter() - started)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="smaller scheduling size, single repeat; "
                             "the overhead gate is not evaluated")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per mode (best-of)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    n, m = SMOKE_SIZE if args.smoke else GATE_SIZE
    repeats = 1 if args.smoke else args.repeats

    print("checking off-path invariance ...", flush=True)
    off_identical = check_off_identical()
    print("checking on-path determinism ...", flush=True)
    deterministic = check_on_deterministic()
    print(f"timing {n}x{m} scheduling scenario ...", flush=True)
    off_s = time_scheduling_scenario(n, m, observability=False,
                                     repeats=repeats)
    on_s = time_scheduling_scenario(n, m, observability=True,
                                    repeats=repeats)
    overhead = (on_s - off_s) / off_s if off_s > 0 else float("inf")

    gates = {
        "off_identical": off_identical["unset_equals_off"]
        and off_identical["matches_pre_instrumentation_golden"],
        "deterministic": deterministic["identical"],
    }
    if not args.smoke:
        # The overhead gate needs the full-size timing run; in smoke
        # mode it is skipped (not silently passed) and recorded below.
        gates["overhead"] = overhead <= MAX_OVERHEAD

    payload = {
        "benchmark": "bench_observability",
        "smoke": args.smoke,
        "scenario": {
            "invariance": "ft_scenario (bench_fault_tolerance --smoke "
                          "configuration, 100s + 60s drain)",
            "overhead": f"SRFAE schedule + kernel execution of one "
                        f"photo() batch, n={n} m={m}",
        },
        "timing": f"best of {repeats} repeat(s), wall-clock",
        "off_identical": off_identical,
        "deterministic": deterministic,
        "overhead": {
            "off_s": off_s,
            "on_s": on_s,
            "relative": overhead,
            "max_relative": MAX_OVERHEAD,
            "gated": not args.smoke,
        },
    }
    exit_code = write_result(JSON_PATH, payload, gates)

    verdict = "PASS" if exit_code == 0 else "FAIL"
    body = (
        f"off path: unset==off {off_identical['unset_equals_off']}, "
        f"matches pre-instrumentation golden "
        f"{off_identical['matches_pre_instrumentation_golden']}\n"
        f"on path deterministic: {deterministic['identical']}\n"
        f"overhead @{n}x{m}: off {off_s * 1e3:.1f} ms, on "
        f"{on_s * 1e3:.1f} ms, +{overhead * 100.0:.1f}% "
        f"(limit {MAX_OVERHEAD * 100.0:.0f}%"
        f"{', not gated in smoke' if args.smoke else ''})\n"
        f"verdict: {verdict}\n"
        f"JSON: {os.path.relpath(JSON_PATH)}")
    record("observability", "Observability overhead and invariance", body,
           smoke=args.smoke)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
