"""Pacing equivalence: a paced run is the unpaced run.

Pacing only sleeps before a clock advance, so it can never reorder
events. These tests pin that property end to end: the golden-harness
scenarios — the Figure 1 snapshot and the continuous-outage
fault-tolerance run — must produce *identical normalized dumps* (full
trace, statistics, serviced sets, and metric snapshots with
observability on) unpaced and paced at ``time_scale=1.0`` against a
fake wall clock, whose sleeps must add up to the scenario's span.
"""

from __future__ import annotations

import pytest

from repro.sim import Environment
from tests.obs.golden import diff_dumps, dump_engine, render_diff
from tests.obs.scenarios import continuous_outage_scenario, snapshot_scenario
from tests.sim.fake_wall import FakeWall, PacedEnvironment

SCENARIOS = {
    "snapshot": snapshot_scenario,
    "continuous_outage": continuous_outage_scenario,
}


def _run(scenario, backend: str, observability):
    """The scenario's engine and the fake wall its runtime slept on
    (``None`` for the unpaced run)."""
    wall = FakeWall() if backend == "realtime" else None
    env = PacedEnvironment(wall) if wall is not None else Environment()
    return scenario(observability, env=env), wall


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("observability", [None, True],
                         ids=["obs-off", "obs-on"])
def test_backends_produce_identical_normalized_dumps(name, observability):
    scenario = SCENARIOS[name]
    virtual, _ = _run(scenario, "virtual", observability)
    realtime, wall = _run(scenario, "realtime", observability)
    differences = diff_dumps(dump_engine(virtual), dump_engine(realtime))
    assert not differences, render_diff(f"{name} (unpaced vs paced)",
                                        differences)
    assert sum(wall.sleeps) == pytest.approx(realtime.env.now)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_realtime_scenarios_end_at_the_virtual_stop_time(name):
    scenario = SCENARIOS[name]
    virtual_engine, _ = _run(scenario, "virtual", None)
    realtime_engine, wall = _run(scenario, "realtime", None)
    assert realtime_engine.env.now == virtual_engine.env.now
    assert realtime_engine.env.time_scale == 1.0
    assert virtual_engine.env.time_scale == 0.0
    assert sum(wall.sleeps) == pytest.approx(virtual_engine.env.now)


def test_seeded_runs_are_identical_within_one_backend():
    # Determinism baseline: without it, paced/unpaced identity would be
    # vacuous.
    first, _ = _run(snapshot_scenario, "realtime", None)
    second, _ = _run(snapshot_scenario, "realtime", None)
    assert not diff_dumps(dump_engine(first), dump_engine(second))
