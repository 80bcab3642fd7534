"""What the engine *does* on the four end-to-end workloads, pinned.

Each workload of ``benchmarks/e2e`` is built at smoke size and run for
one untraced repetition through the benchmark's own harness, imported
read-only the way ``benchmarks/e2e/selftest.py`` does. Its outcome
digest, terminal-state counts, injected events and the three
virtual-time metrics must equal the values in ``e2e_outcomes.json``.

A change that claims to leave behaviour alone leaves that file
untouched. After an intentional behaviour change, re-record it with::

    UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/test_e2e_outcomes.py -q

and explain the diff.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "e2e"))

from harness import repetition  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "e2e_outcomes.json")
SEED = 20050610
SECONDS = 1
METRICS = ("action_latency_p50_vs", "action_latency_p99_vs",
           "events_serviced_frac")


def outcome(workload: str) -> Dict[str, Any]:
    job = build(workload, SEED, SECONDS, smoke=True)
    result = repetition(job, SEED)
    assert not result["problems"], result["problems"]
    pinned = {"digest": result["digest"], "injected": result["injected"],
              "states": result["states"]}
    pinned.update({name: result["end_to_end"][name] for name in METRICS})
    # Round-trip so tuples and floats compare the way the file does.
    return json.loads(json.dumps(pinned))


def load() -> Dict[str, Any]:
    if not os.path.exists(PINNED):
        return {}
    with open(PINNED) as handle:
        return json.load(handle)


def differences(pinned: Dict[str, Any], now: Dict[str, Any]) -> str:
    lines = []
    for key in sorted(set(pinned) | set(now)):
        if key == "states":
            states = sorted(set(pinned.get(key, {})) | set(now.get(key, {})))
            lines += [f"  states.{state}: pinned {pinned[key].get(state)}, "
                      f"now {now[key].get(state)}"
                      for state in states
                      if pinned[key].get(state) != now[key].get(state)]
        elif pinned.get(key) != now.get(key):
            lines.append(f"  {key}: pinned {pinned.get(key)!r}, "
                         f"now {now.get(key)!r}")
    return "\n".join(lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_outcome_matches_pinned(workload):
    now = outcome(workload)
    recorded = load()
    if os.environ.get("UPDATE_GOLDENS"):
        recorded[workload] = now
        recorded["_run"] = {"seed": SEED, "seconds": SECONDS, "smoke": True}
        with open(PINNED, "w") as handle:
            json.dump(recorded, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return
    assert workload in recorded, (
        f"no pinned outcome for {workload!r}; record it with "
        f"UPDATE_GOLDENS=1")
    pinned = recorded[workload]
    assert now == pinned, (
        f"{workload} at seed {SEED} no longer does what is pinned:\n"
        + differences(pinned, now))
