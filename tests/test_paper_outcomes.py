"""The paper's own results, pinned exactly (EXPERIMENTS.md E1, E2, E4, E7).

``benchmarks/`` checks the *shape* of each result (more than half the
requests fail without locking, fewer than a fifth with it). Those
checks hold across many different numbers, so a change that moved a
paper result could pass them unnoticed. This test runs the benches'
own functions and constants, imported read-only, and compares what
they give with ``paper_outcomes.json`` exactly:

- E1 (§6.2): ``bench_synchronization.run_study`` at seed 0, the failure
  rate without and with device synchronization;
- E2 and E4 (§6.3, Figures 4 and 6): the mean *service* makespan of
  each algorithm, the virtual-time column only. The benches add each
  schedule's wall-clock scheduling time, which no host repeats, so
  that part is left out. The four greedy algorithms run the benches'
  own grids (about 0.2 s together). SA costs about a second per
  problem here, so it runs one problem per figure: the 10-request,
  10-camera uniform problem at seed 0 for Figure 4, and the same size
  at skewness 0.2, seed 0, for Figure 6 (the bench's own Figure 6
  problems have 20 requests, about 4 s each). SA stops on a
  temperature floor and an evaluation cap, never on the clock, so its
  schedule repeats exactly;
- E7 (§2.3): ``bench_cost_model.run_experiment``'s mean and max
  relative error of single and chained ``photo()`` estimates.

All of it is pure virtual time, about 3 s together. A change that
claims to leave behaviour alone leaves the file untouched. After an
intentional behaviour change, re-record it with::

    UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/test_paper_outcomes.py -q

and say in the change which paper number moved and whether its shape
held. :func:`figure4_service_makespans` and
:func:`figure6_service_makespans` return the benches' own
``makespans[algorithm][size]`` shape, so a shape check can read them
too.
"""

from __future__ import annotations

import json
import math
import os
import sys
from typing import Any, Dict, Iterator, Tuple

from repro.scheduling import (
    service_makespan,
    skewed_camera_workload,
    uniform_camera_workload,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "paper_outcomes.json")

#: The algorithms whose figure rows are pinned on the benches' grids.
GREEDY = ("LERFA+SRFE", "SRFAE", "LS", "RANDOM")
#: SA's one problem per figure: (requests, cameras, seed), plus the
#: skewness for Figure 6.
SA_FIGURE4 = (10, 10, 0)
SA_FIGURE6 = (10, 10, 0.2, 0)


def benches():
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    try:
        import _common
        import bench_cost_model
        import bench_fig4_uniform
        import bench_fig6_skewed
        import bench_synchronization
    finally:
        sys.path.pop(0)
    return (bench_synchronization, bench_cost_model, bench_fig4_uniform,
            bench_fig6_skewed, _common.scheduler_factories())


def _mean_service(factory, problems) -> float:
    """Mean service makespan, each problem scheduled with its index as
    the seed, as the benches do. ``math.fsum``, so 3.12's compensated
    ``sum()`` cannot move it."""
    return math.fsum(
        service_makespan(problem, factory(seed).schedule(problem))
        for seed, problem in enumerate(problems)) / len(problems)


def figure4_service_makespans() -> Dict[str, Dict[int, float]]:
    """Figure 4's mean service makespan per algorithm and request count
    (the greedy rows on the bench's grid), plus SA's on one problem."""
    _, _, fig4, _, factories = benches()
    makespans: Dict[str, Dict[int, float]] = {name: {} for name in GREEDY}
    for n_requests in fig4.REQUEST_COUNTS:
        problems = [uniform_camera_workload(n_requests, fig4.N_DEVICES,
                                            seed=seed)
                    for seed in range(fig4.RUNS)]
        for name in GREEDY:
            makespans[name][n_requests] = _mean_service(factories[name],
                                                        problems)
    n_requests, n_devices, seed = SA_FIGURE4
    problem = uniform_camera_workload(n_requests, n_devices, seed=seed)
    makespans["SA"] = {n_requests: service_makespan(
        problem, factories["SA"](seed).schedule(problem))}
    return makespans


def figure6_service_makespans() -> Dict[str, Dict[float, float]]:
    """Figure 6's mean service makespan per algorithm and skewness (the
    greedy rows on the bench's grid), plus SA's on one problem."""
    _, _, _, fig6, factories = benches()
    makespans: Dict[str, Dict[float, float]] = {name: {} for name in GREEDY}
    for skewness in fig6.SKEWNESS_LEVELS:
        problems = [skewed_camera_workload(fig6.N_REQUESTS, fig6.N_DEVICES,
                                           skewness, seed=seed)
                    for seed in range(fig6.RUNS)]
        for name in GREEDY:
            makespans[name][skewness] = _mean_service(factories[name],
                                                      problems)
    n_requests, n_devices, skewness, seed = SA_FIGURE6
    problem = skewed_camera_workload(n_requests, n_devices, skewness,
                                     seed=seed)
    makespans["SA"] = {skewness: service_makespan(
        problem, factories["SA"](seed).schedule(problem))}
    return makespans


def outcomes() -> Dict[str, Any]:
    synchronization, cost_model, fig4, fig6, _ = benches()
    single, chained = cost_model.run_experiment()
    return {
        "E1_synchronization": {
            "seed": 0,
            "failure_rate_without": synchronization.run_study(locking=False),
            "failure_rate_with": synchronization.run_study(locking=True),
        },
        "E2_figure4_service_s": {
            "devices": fig4.N_DEVICES,
            "runs": fig4.RUNS,
            "sa_problem": "uniform {}x{} seed {}".format(*SA_FIGURE4),
            "by_requests": figure4_service_makespans(),
        },
        "E4_figure6_service_s": {
            "requests": fig6.N_REQUESTS,
            "devices": fig6.N_DEVICES,
            "runs": fig6.RUNS,
            "sa_problem": "skewed {}x{} skewness {} seed {}".format(
                *SA_FIGURE6),
            "by_skewness": figure6_service_makespans(),
        },
        "E7_cost_model": {
            "single_mean_error": math.fsum(single) / len(single),
            "single_max_error": max(single),
            "chained_mean_error": math.fsum(chained) / len(chained),
            "chained_max_error": max(chained),
        },
    }


def _leaves(tree: Any, path: str = "") -> Iterator[Tuple[str, Any]]:
    """``(dotted path, value)`` for every non-dict value in ``tree``."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    else:
        yield path, tree


def test_paper_outcomes_match_pinned():
    # Round-trip so floats and keys compare the way the file stores them.
    now = json.loads(json.dumps(outcomes()))
    if os.environ.get("UPDATE_GOLDENS"):
        with open(PINNED, "w") as handle:
            json.dump(now, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return
    with open(PINNED) as handle:
        pinned = json.load(handle)
    was = dict(_leaves(pinned))
    moved = [f"{path}: pinned {was.get(path)!r}, now {value!r}"
             for path, value in _leaves(now) if was.get(path) != value]
    assert now == pinned, "paper results moved:\n" + "\n".join(moved)
