"""Self-check of the end-to-end benchmark (not collected by tier-1).

Run as ``python3 benchmarks/e2e/selftest.py``. It checks the
benchmark, not the engine:

* the exclusive-time tracer bills a nested call, a suspended generator
  and a throw to the right layer, against a fake clock;
* two ``--smoke`` repetitions of one seed give exactly equal counts,
  virtual-time metrics and outcome digests, traced or not;
* after a traced repetition the layer stack is empty and the self
  times sum to no more than the wall of ``run()``;
* a seed other than the default still passes every output check.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                "src"))
sys.path.insert(0, HERE)

from harness import repetition  # noqa: E402
from layertrace import LayerTracer  # noqa: E402
from run import DEFAULT_SEED, EXACT, SMOKE_SECONDS  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402


def check_tracer_arithmetic() -> None:
    ticks = iter(range(1000))
    tracer = LayerTracer(clock=lambda: float(next(ticks)))

    def leaf() -> str:
        return "leaf"

    def worker():
        got = yield "first"          # suspended here: nobody is billed
        try:
            yield got
        except KeyError:
            yield traced_leaf()
        return "done"

    traced_leaf = tracer._wrap_call(leaf, "inner", "leaf")
    driven = tracer._drive(worker(), "outer", "worker", None)
    assert next(driven) == "first"
    assert driven.send("second") == "second"
    assert driven.throw(KeyError()) == "leaf"
    try:
        next(driven)
    except StopIteration as stop:
        assert stop.value == "done"
    else:
        raise AssertionError("wrapped generator did not finish")
    assert tracer.depth == 0
    # Four resumes of one tick each, minus the leaf's tick plus the
    # clock reads around it: every tick between enter and exit is
    # billed exactly once.
    assert tracer.self_s == {"outer": 5.0, "inner": 1.0}, tracer.self_s
    assert tracer.calls == {"worker": 1, "leaf": 1}


def smoke(workload: str, seed: int, traced: bool) -> dict:
    job = build(workload, seed, SMOKE_SECONDS, smoke=True)
    result = repetition(job, seed, traced=traced)
    assert not result["problems"], (workload, seed, result["problems"])
    return result


def check_workload(workload: str) -> None:
    first = smoke(workload, DEFAULT_SEED, traced=False)
    second = smoke(workload, DEFAULT_SEED, traced=False)
    traced = smoke(workload, DEFAULT_SEED, traced=True)
    for other in (second, traced):
        assert other["digest"] == first["digest"], workload
        assert other["states"] == first["states"], workload
        assert other["injected"] == first["injected"], workload
        for name in EXACT:
            assert (other["end_to_end"][name]
                    == first["end_to_end"][name]), (workload, name)
    layers = traced["per_layer"]
    self_total = sum(value for name, value in layers.items()
                     if name.endswith("_self_s"))
    assert self_total <= layers["bench.run_wall_s"], (workload, layers)
    assert 0.0 <= layers["bench.unattributed_frac"] <= 1.0, workload
    other_seed = smoke(workload, DEFAULT_SEED + 1, traced=False)
    assert other_seed["digest"] != first["digest"], workload


def main() -> int:
    check_tracer_arithmetic()
    print("tracer arithmetic ok")
    for workload in WORKLOADS:
        check_workload(workload)
        print(f"{workload} ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
