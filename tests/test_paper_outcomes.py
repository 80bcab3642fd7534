"""The paper's own results, pinned exactly (EXPERIMENTS.md E1 and E7).

``benchmarks/`` checks the *shape* of each result (more than half the
requests fail without locking, fewer than a fifth with it). Those
checks hold across many different numbers, so a change that moved a
paper result could pass them unnoticed. This test runs the benches'
own functions, imported read-only, and compares what they return with
``paper_outcomes.json`` exactly:

- E1 (§6.2): ``bench_synchronization.run_study`` at seed 0, the failure
  rate without and with device synchronization;
- E7 (§2.3): ``bench_cost_model.run_experiment``'s mean and max
  relative error of single and chained ``photo()`` estimates.

Both are pure virtual time and take about a second together. A change
that claims to leave behaviour alone leaves the file untouched. After
an intentional behaviour change, re-record it with::

    UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/test_paper_outcomes.py -q

and say in the change which paper number moved and whether its shape
held.
"""

from __future__ import annotations

import json
import math
import os
import sys
from typing import Any, Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "paper_outcomes.json")


def benches():
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    try:
        import bench_cost_model
        import bench_synchronization
    finally:
        sys.path.pop(0)
    return bench_synchronization, bench_cost_model


def outcomes() -> Dict[str, Any]:
    synchronization, cost_model = benches()
    single, chained = cost_model.run_experiment()
    return {
        "E1_synchronization": {
            "seed": 0,
            "failure_rate_without": synchronization.run_study(locking=False),
            "failure_rate_with": synchronization.run_study(locking=True),
        },
        "E7_cost_model": {
            "single_mean_error": math.fsum(single) / len(single),
            "single_max_error": max(single),
            "chained_mean_error": math.fsum(chained) / len(chained),
            "chained_max_error": max(chained),
        },
    }


def test_paper_outcomes_match_pinned():
    # Round-trip so floats compare the way the file stores them.
    now = json.loads(json.dumps(outcomes()))
    if os.environ.get("UPDATE_GOLDENS"):
        with open(PINNED, "w") as handle:
            json.dump(now, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return
    with open(PINNED) as handle:
        pinned = json.load(handle)
    moved = [f"{experiment}.{name}: pinned {pinned[experiment].get(name)!r}, "
             f"now {value!r}"
             for experiment, values in now.items()
             for name, value in values.items()
             if pinned.get(experiment, {}).get(name) != value]
    assert now == pinned, "paper results moved:\n" + "\n".join(moved)
