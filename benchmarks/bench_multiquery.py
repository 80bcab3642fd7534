"""Multi-query matching benchmark: predicate index vs the linear walk.

Registers a large population of AQs over one sensor fleet — the
pervasive-computing regime where thousands of applications watch the
same few physical tables — and drives synthetic scan rows through the
continuous executor's matcher and through a reference walk:

* **indexed** (the engine): each row is routed through the
  per-(table, attribute) interval/point index to exactly the queries
  whose bands admit it; only non-indexable residuals fall back to
  evaluation.
* **brute force** (bench-local, the reference the tests use):
  ``evaluate()`` of every query's event predicate against every row,
  O(queries x rows), with the same edge-trigger memory.

The query mix exercises every band shape: 93% narrow intervals on
``temperature``, 3% point predicates on ``light``, 3% open-ended
ranges on ``battery`` and 1% ORs over the accelerometer axes, which
the index files as one disjunct per arm.

Gates, written to ``BENCH_multiquery.json``:

* **identity** — the engine detects exactly the (query, sensor) events
  the brute-force walk does, in the same order, and emits one request
  per detection.
* **deterministic** — rebuilding the indexed engine and repeating the
  detection epoch reproduces the summary exactly.
* **examined_per_match** — the index post-filters at most 2 candidate
  entries per match it reports (``candidates_examined / matches``, an
  exactly repeating count; smoke scale has the same 1% OR mix, so it
  is gated there too).
* **speedup_10x** — indexed matching sustains >= 10x the rows/sec of
  the linear walk at 100k registered AQs. Full runs only; ``--smoke``
  measures and records the ratio but does not gate it.

Usage::

    PYTHONPATH=src python benchmarks/bench_multiquery.py [--smoke]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from _common import format_table, record, write_result  # noqa: E402

from repro import (  # noqa: E402
    AortaEngine,
    EngineConfig,
    Environment,
    PanTiltZoomCamera,
    Point,
)
from repro.comm.tuples import DeviceTuple  # noqa: E402
from repro.plan.planner import ContinuousPlan  # noqa: E402
from repro.query import BooleanOp, ColumnRef, Comparison, Literal  # noqa: E402
from repro.query.expressions import EvaluationContext, evaluate  # noqa: E402

JSON_PATH = os.path.join(os.path.dirname(__file__), "..",
                         "BENCH_multiquery.json")

FULL_QUERIES = 100_000
SMOKE_QUERIES = 2_000
FULL_SENSORS = 8
SMOKE_SENSORS = 4

#: Matching epochs per path. The linear walk is ~two orders slower per
#: epoch, so it gets fewer; throughput is normalized to rows/sec.
FULL_LINEAR_EPOCHS = 2
FULL_INDEXED_EPOCHS = 20
SMOKE_LINEAR_EPOCHS = 2
SMOKE_INDEXED_EPOCHS = 10

#: Required indexed-vs-linear rows/sec ratio, full runs only.
TARGET_SPEEDUP = 10.0

#: Most candidate entries the index may post-filter per match reported.
MAX_EXAMINED_PER_MATCH = 2.0

#: Point predicates quantize light to this many distinct levels.
LIGHT_LEVELS = 41

#: Trace kinds compared between an engine build and its rebuild.
DETECTION_KINDS = ("event_detected", "request_emitted")


def event_predicate(i: int):
    """Deterministic band mix: function of the query index only."""
    kind = i % 100
    if kind < 93:
        # Narrow temperature interval somewhere in the [0, 1000) domain.
        lo = ((i * 7919) % 99_000) / 99.0
        return BooleanOp("AND", (
            Comparison(">=", ColumnRef("s", "temperature"), Literal(lo)),
            Comparison("<=", ColumnRef("s", "temperature"),
                       Literal(lo + 0.2)),
        ))
    if kind < 96:
        # Point predicate on a quantized light level.
        return Comparison("=", ColumnRef("s", "light"),
                          Literal(float((i % LIGHT_LEVELS) * 25)))
    if kind < 99:
        # Open-ended range; the synthetic rows keep battery < 99 so
        # these stay registered-but-quiet (the index must carry them).
        return Comparison(">", ColumnRef("s", "battery"),
                          Literal(99.0 + (i % 97) / 100.0))
    # An OR over both accelerometer axes: two disjuncts, no residual.
    return BooleanOp("OR", (
        Comparison(">", ColumnRef("s", "accel_x"),
                   Literal(990.0 + (i % 10))),
        Comparison(">", ColumnRef("s", "accel_y"), Literal(995.0)),
    ))


def make_rows(n_sensors: int):
    """One synthetic scan result: a row per sensor, fixed values."""
    rows = []
    for j in range(n_sensors):
        rows.append(DeviceTuple(
            device_type="sensor",
            device_id=f"s{j:03d}",
            values={
                "id": f"s{j:03d}",
                "loc_x": float(j * 10),
                "loc_y": 0.0,
                "accel_x": float((j * 29) % 1000),
                "accel_y": float((j * 31) % 1000),
                "temperature": ((j * 37) % 997) * 1000.0 / 997.0,
                "light": float(((j * 7) % LIGHT_LEVELS) * 25),
                "battery": ((j * 13) % 990) / 10.0,
            },
        ))
    return rows


def query_name(i: int) -> str:
    return f"aq{i:06d}"


def build_engine(n_queries: int):
    """An engine with two cameras and ``n_queries`` registered AQs.

    Plans are constructed directly (no SQL parse) so registration time
    measures the executor, and the simulation never runs — detection is
    driven synchronously on synthetic rows.
    """
    env = Environment()
    engine = AortaEngine(env, config=EngineConfig(probing=False))
    engine.add_device(PanTiltZoomCamera(env, "cam1", Point(0.0, 0.0),
                                        ip_address="10.0.0.1"))
    engine.add_device(PanTiltZoomCamera(env, "cam2", Point(50.0, 0.0),
                                        ip_address="10.0.0.2"))
    photo = engine.actions.get("photo")
    started = time.perf_counter()
    for i in range(n_queries):
        engine.continuous.register(ContinuousPlan(
            query_name=query_name(i),
            action=photo,
            event_alias="s",
            event_table="sensor",
            device_alias="c",
            device_table="camera",
            event_predicate=event_predicate(i),
            candidate_predicate=None,
            argument_expressions={
                "target": ColumnRef("s", "loc"),
                "directory": Literal("photos/bench"),
            },
        ))
    register_s = time.perf_counter() - started
    return engine, register_s


def brute_force(predicates, rows, held) -> list:
    """One reference pass: every predicate evaluated over every row.

    Query-major in registration order; ``held`` is the edge-trigger
    memory, carried from pass to pass. Returns the (query, sensor)
    events detected.
    """
    detected = []
    context = EvaluationContext(tuples={})
    for name, predicate in predicates:
        for row in rows:
            context.tuples["s"] = row
            key = (name, row.device_id)
            if not evaluate(predicate, context):
                held.discard(key)
            elif key not in held:
                held.add(key)
                detected.append(key)
    return detected


def summarize(engine):
    """The behavioural fingerprint compared across rebuilds."""
    counters = {}
    for name, query in sorted(engine.continuous.queries.items()):
        values = (query.events_detected, query.requests_emitted,
                  query.uncovered_events, query.requests_rejected)
        if any(values):
            counters[name] = values
    trace = [(rec.kind, tuple(sorted(rec.fields.items())))
             for rec in engine.tracer.records
             if rec.kind in DETECTION_KINDS]
    detections = [(rec["query"], rec["sensor"])
                  for rec in engine.tracer.of_kind("event_detected")]
    return {"counters": counters, "trace": trace, "detections": detections}


def timed_epochs(one_pass, rows, epochs: int) -> dict:
    """Time edge-suppressed passes: pure matching cost, rows/sec."""
    started = time.perf_counter()
    for _ in range(epochs):
        one_pass()
    elapsed = time.perf_counter() - started
    scanned = epochs * len(rows)
    return {
        "epochs": epochs,
        "rows_scanned": scanned,
        "match_s": round(elapsed, 4),
        "rows_per_s": round(scanned / elapsed, 2) if elapsed > 0
        else float("inf"),
    }


def run_brute_force(n_queries: int, rows, epochs: int):
    """The reference walk: one identity pass, then timed passes."""
    predicates = [(query_name(i), event_predicate(i))
                  for i in range(n_queries)]
    held: set = set()
    detections = brute_force(predicates, rows, held)
    result = timed_epochs(lambda: brute_force(predicates, rows, held),
                          rows, epochs)
    result.update(path="brute-force", queries=n_queries, register_s=0.0,
                  events_detected=len(detections))
    return result, detections


def run_indexed(n_queries: int, rows, epochs: int):
    """Build, run one identity epoch, then time edge-suppressed epochs.

    The first epoch emits requests and fills the edge-trigger memory;
    the timed epochs re-scan the same rows, so every match is
    suppressed by the edge and the measurement is pure matching cost.
    """
    engine, register_s = build_engine(n_queries)
    continuous = engine.continuous
    # The synthetic rows carry every sensory column.
    columns = tuple(attr.name for attr
                    in engine.comm.catalog("sensor").sensory_attributes)
    continuous._detect_indexed("sensor", rows, columns)
    summary = summarize(engine)
    result = timed_epochs(
        lambda: continuous._detect_indexed("sensor", rows, columns), rows,
        epochs)
    stats = continuous.index_stats()
    result.update(
        path="indexed", queries=n_queries,
        register_s=round(register_s, 4),
        events_detected=sum(v[0] for v in summary["counters"].values()),
        requests_emitted=sum(v[1] for v in summary["counters"].values()),
        index=stats,
        examined_per_match=round(
            stats["candidates_examined"] / stats["matches"], 3)
        if stats["matches"] else float("inf"))
    return result, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small population; speedup measured, not gated")
    parser.add_argument("--queries", type=int, default=None,
                        help="override the registered-AQ population")
    args = parser.parse_args(argv)

    n_queries = args.queries if args.queries is not None else (
        SMOKE_QUERIES if args.smoke else FULL_QUERIES)
    n_sensors = SMOKE_SENSORS if args.smoke else FULL_SENSORS
    linear_epochs = SMOKE_LINEAR_EPOCHS if args.smoke \
        else FULL_LINEAR_EPOCHS
    indexed_epochs = SMOKE_INDEXED_EPOCHS if args.smoke \
        else FULL_INDEXED_EPOCHS
    rows = make_rows(n_sensors)

    print(f"brute-force walk: {n_queries} AQs x {n_sensors} sensors ...",
          flush=True)
    linear, detections = run_brute_force(n_queries, rows, linear_epochs)
    print(f"indexed matching: {n_queries} AQs x {n_sensors} sensors ...",
          flush=True)
    indexed, indexed_summary = run_indexed(n_queries, rows, indexed_epochs)
    print("indexed repeat (determinism) ...", flush=True)
    repeat, repeat_summary = run_indexed(n_queries, rows, 1)

    identity = indexed_summary["detections"] == detections \
        and indexed["requests_emitted"] == len(detections)
    deterministic = indexed_summary == repeat_summary \
        and indexed["events_detected"] == repeat["events_detected"]
    speedup = (indexed["rows_per_s"] / linear["rows_per_s"]
               if linear["rows_per_s"] else float("inf"))

    gates = {
        "identity": identity,
        "deterministic": deterministic,
        "examined_per_match": indexed["examined_per_match"]
        <= MAX_EXAMINED_PER_MATCH,
    }
    if not args.smoke:
        # The speedup gate needs the full population: at smoke scale
        # fixed per-epoch overhead drowns the per-query savings.
        gates["speedup_10x"] = speedup >= TARGET_SPEEDUP

    payload = {
        "benchmark": "bench_multiquery",
        "smoke": args.smoke,
        "workload": (f"{n_queries} AQs over one sensor table "
                     f"({n_sensors} synthetic rows/scan): 93% "
                     f"temperature intervals, 3% light points, 3% "
                     f"open battery ranges, 1% accelerometer ORs"),
        "linear": linear,
        "indexed": indexed,
        "speedup": {
            "ratio": round(speedup, 2),
            "target": TARGET_SPEEDUP,
            "gated": not args.smoke,
        },
        "identity": identity,
        "deterministic": deterministic,
    }
    exit_code = write_result(JSON_PATH, payload, gates)

    verdict = "PASS" if exit_code == 0 else "FAIL"
    table = format_table(
        ("path", "queries", "register s", "match s", "rows/s"),
        [(linear["path"], linear["queries"], linear["register_s"],
          linear["match_s"], linear["rows_per_s"]),
         (indexed["path"], indexed["queries"], indexed["register_s"],
          indexed["match_s"], indexed["rows_per_s"])])
    body = (
        f"{table}\n"
        f"speedup: {speedup:.1f}x (target {TARGET_SPEEDUP:.0f}x"
        f"{', not gated in smoke' if args.smoke else ''})\n"
        f"candidates examined per match: "
        f"{indexed['examined_per_match']} "
        f"(at most {MAX_EXAMINED_PER_MATCH:.0f})\n"
        f"detections identical to the brute-force walk: {identity}\n"
        f"deterministic rebuild: {deterministic}\n"
        f"verdict: {verdict}\n"
        f"JSON: {os.path.relpath(JSON_PATH)}")
    record("multiquery", "Predicate-indexed multi-query matching", body,
           smoke=args.smoke)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
