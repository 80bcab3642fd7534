"""Scheduling-time regression benchmark: the vector cost kernel.

One section, one machine-readable ``BENCH_scheduling.json``. No
scheduler memoizes its estimates (DESIGN.md decision 6), so the only
second cost path left to time is the scalar walk.

**Vector** times the numpy column kernel, which a scheduler takes
whenever ``build_kernel`` offers one, against the scalar walk on the
calibrated camera workload at 400x100 and 4000x1000, asserting
byte-identical assignments. The scalar side is reached through
``scalar_walk``, the seam the tests use: it makes ``build_kernel``
decline every problem where SRFAE and LERFA+SRFE look it up, and
restores it when the timing ends.

The acceptance gate is a real boolean in every mode. Counts that repeat
exactly always apply: the kernel's schedules equal the scalar walk's
(``vector_identical``), and ``matrix_identity`` checks that every row
of the engine kernel's one-fill cost matrix, costed by the dispatcher's
:class:`_ActionCostAdapter` over the real photo() pipeline, equals that
device's column to the bit. The wall-clock floors (vectorized SRFAE >=
5x / LERFA+SRFE >= 3x at 4000x1000, ``vector_speedup``) are evaluated
on full runs only. A gate miss fails the process.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_regression.py [--smoke]
"""

from __future__ import annotations

import argparse
import contextlib
import os
import random
import sys
from unittest import mock

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from _common import format_table, record, write_result  # noqa: E402

from repro.actions.request import ActionRequest  # noqa: E402
from repro.core.dispatcher import _ActionCostAdapter  # noqa: E402
from repro.core.engine import AortaEngine  # noqa: E402
from repro.devices.camera import PanTiltZoomCamera  # noqa: E402
from repro.geometry import Point  # noqa: E402
from repro.scheduling import (  # noqa: E402
    LerfaSrfeScheduler,
    Problem,
    SchedRequest,
    SrfaeScheduler,
    build_kernel,
    uniform_camera_workload,
)
from repro.scheduling import lerfa_srfe, srfae  # noqa: E402
from repro.sim import Environment  # noqa: E402

JSON_PATH = os.path.join(os.path.dirname(__file__), "..",
                         "BENCH_scheduling.json")

#: Calibrated-camera workload sizes; the second is the 10x-the-paper
#: scale the vectorized kernel exists for.
VECTOR_SIZES = ((400, 100), (4000, 1000))
VECTOR_SMOKE_SIZES = ((20, 5),)
#: Per-algorithm vectorized-vs-scalar floors at the largest size. SRFAE
#: keys every (request, device) pair so it vectorizes hardest; LERFA's
#: scalar loop is already light, so its floor is lower.
VECTOR_TARGETS = {"SRFAE": 5.0, "LERFA+SRFE": 3.0}
#: Where the engine kernel's one-fill matrix is checked against its
#: per-device columns: a dispatch_heavy-sized burst on a 40-camera field.
MATRIX_GATE_SIZE = (24, 40)


def engine_oracle_problem(n: int, m: int, seed: int = 0) -> Problem:
    """A photo() batch costed by the real engine cost model.

    m cameras scattered over a 100x100 m field, n requests aiming at
    random targets, every camera a candidate (the Figure 4 uniform
    shape). Estimates go through ``CostModel.estimate`` — the same
    resolver + profile path the dispatcher pays.
    """
    rng = random.Random(seed)
    env = Environment()
    engine = AortaEngine(env, seed=seed)
    cameras = {}
    for j in range(m):
        camera = PanTiltZoomCamera(
            env, f"cam{j + 1}",
            Point(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)),
            facing=rng.uniform(-180.0, 180.0),
            view_half_angle=170.0, view_range=1000.0)
        engine.add_device(camera)
        cameras[camera.device_id] = camera
    device_ids = tuple(cameras)
    action = engine.actions.get("photo")
    statuses = {device_id: camera.physical_status()
                for device_id, camera in cameras.items()}
    requests = []
    for i in range(n):
        action_request = ActionRequest(
            action_name="photo",
            arguments={
                "target": Point(rng.uniform(0.0, 100.0),
                                rng.uniform(0.0, 100.0)),
                "directory": "/photos",
            },
            request_id=f"req{i + 1}",
            candidates=device_ids,
        )
        requests.append(SchedRequest(
            request_id=action_request.request_id,
            candidates=device_ids,
            payload=action_request,
        ))
    return Problem(
        requests=tuple(requests),
        device_ids=device_ids,
        cost_model=_ActionCostAdapter(engine.cost_model, action, cameras,
                                      statuses),
        label=f"engine-oracle photo n={n} m={m} seed={seed}",
    )


def matrix_identity(n: int, m: int) -> bool:
    """Whether every row of the engine kernel's cost matrix is, to the
    bit, that device's column from the same status."""
    problem = engine_oracle_problem(n, m, seed=0)
    kernel = build_kernel(problem)
    statuses = problem.initial_statuses()
    matrix = kernel.matrix(problem.device_ids, statuses)
    return all(
        matrix[k].tobytes()
        == kernel.column(device_id, statuses[device_id]).tobytes()
        for k, device_id in enumerate(problem.device_ids))


@contextlib.contextmanager
def scalar_walk():
    """Every schedule run inside the block takes the scalar walk:
    ``build_kernel`` declines every problem where the schedulers with a
    kernel path look it up (``tests/scheduling/scalar_walk.py``)."""
    with contextlib.ExitStack() as stack:
        for module in (srfae, lerfa_srfe):
            stack.enter_context(mock.patch.object(
                module, "build_kernel", lambda problem: None))
        yield


def bench_vector(name: str, n: int, m: int, repeats: int) -> dict:
    """Scalar vs vectorized scheduling time on the camera workload."""
    problem = uniform_camera_workload(n, m, seed=0)
    factory = {"SRFAE": SrfaeScheduler, "LERFA+SRFE": LerfaSrfeScheduler}[name]
    # The scalar walk at 4000x1000 runs minutes; one timing is plenty.
    scalar_repeats = repeats if n <= 400 else 1
    scalar_s = float("inf")
    with scalar_walk():
        for _ in range(scalar_repeats):
            schedule = factory(0).schedule(problem)
            scalar_s = min(scalar_s, schedule.scheduling_seconds)
    reference = schedule.assignments
    vector_s = float("inf")
    for _ in range(repeats):
        schedule = factory(0).schedule(problem)
        vector_s = min(vector_s, schedule.scheduling_seconds)
    return {
        "n": n,
        "m": m,
        "scalar_s": scalar_s,
        "vector_s": vector_s,
        "speedup": scalar_s / vector_s if vector_s > 0 else float("inf"),
        "identical": schedule.assignments == reference,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest size only, single repeat (CI)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per cell (best-of)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    repeats = 1 if args.smoke else args.repeats

    vector_results: dict = {}
    vector_identical = True
    rows = []
    vector_sizes = VECTOR_SMOKE_SIZES if args.smoke else VECTOR_SIZES
    for n, m in vector_sizes:
        for name in VECTOR_TARGETS:
            cell = bench_vector(name, n, m, repeats)
            vector_results.setdefault(name, {})[f"{n}x{m}"] = cell
            vector_identical = vector_identical and cell["identical"]
            rows.append((name, f"{n}x{m}", cell["scalar_s"] * 1e3,
                         cell["vector_s"] * 1e3, cell["speedup"],
                         cell["identical"]))
            print(f"  {name:>10} {n}x{m} vector: "
                  f"scalar {cell['scalar_s']:.3f}s"
                  f"  vector {cell['vector_s']:.3f}s"
                  f"  ({cell['speedup']:.1f}x, identical="
                  f"{cell['identical']})", flush=True)
    matrix_identical = matrix_identity(*MATRIX_GATE_SIZE)
    print(f"  engine kernel {MATRIX_GATE_SIZE[0]}x{MATRIX_GATE_SIZE[1]}"
          f" matrix rows == columns: {matrix_identical}", flush=True)

    # ------------------------------------------------------------------
    # The gate: exact counts always; wall-clock floors on full runs
    # ------------------------------------------------------------------
    equivalence = {
        "vector_identical": vector_identical,
        "matrix_identity": matrix_identical,
    }
    gates = dict(equivalence)
    vector_acceptance = None
    if not args.smoke:
        vector_size = "x".join(map(str, VECTOR_SIZES[-1]))
        vector_acceptance = {
            f"{name}@{vector_size}": round(
                vector_results[name][vector_size]["speedup"], 2)
            for name in VECTOR_TARGETS}
        gates["vector_speedup"] = all(
            vector_results[name][vector_size]["speedup"] >= floor
            for name, floor in VECTOR_TARGETS.items())

    payload = {
        "benchmark": "bench_perf_regression",
        "workload": ("calibrated camera workload (vector); photo() "
                     "batches costed by the engine CostModel via "
                     "_ActionCostAdapter (matrix identity)"),
        "modes": {
            "vector": ("numpy column kernel vs the scalar walk, "
                       "calibrated camera workload"),
        },
        "smoke": args.smoke,
        "timing": f"best of {repeats} repeat(s), scheduling_seconds",
        "vector_targets": VECTOR_TARGETS,
        "gate": {"vector": vector_acceptance,
                 "equivalence": equivalence},
        "vector_results": vector_results,
    }
    exit_code = write_result(JSON_PATH, payload, gates)

    table = format_table(
        ("algorithm", "size", "scalar ms", "vector ms", "scalar / vector",
         "identical"), rows)
    scope = ("exact counts (smoke)" if args.smoke
             else "exact counts + vector speedup floors")
    verdict = (f"gate [{scope}]: {'PASS' if exit_code == 0 else 'FAIL'} "
               f"vector={vector_acceptance} equivalence={equivalence}")
    # A smoke run writes no JSON (write_result), so it names none.
    written = "" if args.smoke else f"\nJSON: {os.path.relpath(JSON_PATH)}"
    record("perf_regression",
           "Scheduling-time regression: vector kernel",
           table + "\n\n" + verdict + written, smoke=args.smoke)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
