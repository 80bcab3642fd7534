"""Engine vs brute force: what the predicate index detects and emits.

Every scenario runs once with each shared scan recorded. A brute-force
walk then replays the recorded rows — ``evaluate()`` of every AQ's
event predicate over every row, query-major in registration order,
with edge-trigger memory — and the engine's ``event_detected`` /
``request_emitted`` trace must equal what the walk produces: same
records, same order, same virtual times. Scenarios: the Figure 1
snapshot, the continuous-outage workload, ORs routed as disjuncts,
1- and 4-shard fleets, observability on and off, both runtime backends.
"""

import pytest

from repro import EngineConfig
from repro.comm.scan import ScanOperator
from repro.comm.tuples import DeviceTuple
from repro.devices.sensor import SensorStimulus
from repro.query.expressions import EvaluationContext, evaluate

from tests.core.conftest import FIGURE_1, build_lab
from tests.obs.scenarios import (
    continuous_outage_scenario,
    snapshot_scenario,
)
from tests.shard.scenarios import (
    region_fleet_scenario,
    sharded_snapshot_scenario,
)
from tests.sim.fake_wall import FakeWall, PacedEnvironment


@pytest.fixture
def scans(monkeypatch):
    """Every shared scan of the test: (runtime, at, table, rows)."""
    recorded = []
    scan = ScanOperator.scan

    def recording(self):
        rows = yield from scan(self)
        recorded.append((self.env, self.env.now, self.device_type, rows))
        return rows

    monkeypatch.setattr(ScanOperator, "scan", recording)
    return recorded


def brute_force_candidates(engine, plan, context, at):
    """Devices of the plan's device table the candidate predicate admits."""
    return sum(
        1 for device in engine.comm.registry.of_type(plan.device_table)
        if plan.candidate_predicate is None or evaluate(
            plan.candidate_predicate,
            context.bind(plan.device_alias, DeviceTuple(
                device.device_type, device.device_id,
                device.static_attributes(), at))))


def reference_trace(engine, scans):
    """What a walk over every (query, row) pair detects and emits.

    Holds for engines whose AQs are all registered before the first
    poll and stay enabled, and whose devices do not move.
    """
    held, trace = set(), []
    for env, at, table, rows in scans:
        if env is not engine.env:
            continue
        for query in engine.continuous.catalog.readers(table):
            plan = query.plan
            for row in rows:
                context = EvaluationContext({plan.event_alias: row},
                                            engine.functions)
                key = (query.name, row.device_id)
                if plan.event_predicate is not None and not evaluate(
                        plan.event_predicate, context):
                    held.discard(key)
                    continue
                if key in held:
                    continue  # still the same event
                held.add(key)
                trace.append((at, "event_detected", {
                    "query": query.name, "sensor": row.device_id}))
                candidates = brute_force_candidates(engine, plan, context, at)
                if candidates:
                    trace.append((at, "request_emitted", {
                        "query": query.name, "action": plan.action.name,
                        "candidates": candidates}))
    return trace


def assert_matches_reference(engine, scans, *, events):
    detected = [(record.at, record.kind, dict(record.fields))
                for record in engine.tracer
                if record.kind in ("event_detected", "request_emitted")]
    assert detected == reference_trace(engine, scans)
    assert sum(kind == "event_detected"
               for _at, kind, _fields in detected) == events


@pytest.mark.parametrize("observability", [False, True])
def test_snapshot_identity(scans, observability):
    assert_matches_reference(snapshot_scenario(observability), scans,
                             events=1)


@pytest.mark.parametrize("observability", [False, True])
def test_continuous_outage_identity(scans, observability):
    # No AQ is registered here: requests enter at the operator, so the
    # matcher must stay silent and leave no table behind.
    engine = continuous_outage_scenario(observability)
    assert_matches_reference(engine, scans, events=0)
    assert engine.statistics()["predicate_index_tables"] == 0


def test_snapshot_identity_realtime_backend(scans):
    # Paced at scale 1.0 against a fake wall clock.
    wall = FakeWall()
    engine = snapshot_scenario(True, env=PacedEnvironment(wall))
    assert_matches_reference(engine, scans, events=1)
    assert sum(wall.sleeps) == pytest.approx(engine.env.now)


def test_continuous_outage_identity_realtime_backend(scans):
    wall = FakeWall()
    engine = continuous_outage_scenario(True, env=PacedEnvironment(wall))
    assert_matches_reference(engine, scans, events=0)
    assert sum(wall.sleeps) == pytest.approx(engine.env.now)


def test_single_shard_identity(scans):
    fleet = sharded_snapshot_scenario(True)
    assert_matches_reference(fleet.shard(0), scans, events=1)


def test_four_shard_identity(scans):
    fleet = region_fleet_scenario(4, True)
    for shard in fleet.shards:
        # Every shard detects exactly its own region's event.
        assert_matches_reference(shard, scans, events=1)


#: AQs whose event predicates hold ORs: routed as disjuncts (the
#: first three, the third beside a band and a residual conjunct) or
#: left residual (an arm the band form refuses).
OR_QUERIES = {
    "either_axis": "s.accel_x > 500 OR s.accel_y > 500",
    "band_or_never": "(s.accel_x > 800 AND s.accel_x < 900) "
                     "OR s.accel_y > 50000",
    "hot_shake": "s.temperature > 10 AND abs(s.accel_y) < 5000 AND "
                 "(s.accel_x > 500 OR s.accel_y > 500 OR s.light > 9000)",
    "unrouted": "s.accel_x > 500 OR abs(s.accel_y) > 500",
}


def or_scenario(observability):
    """Stimuli that walk rows from one disjunct of an AQ to another.

    mote1 shakes along x from 2 s to 9 s and along y from 6 s to 14 s:
    ``either_axis`` holds from 2 s to 14 s without a gap, first by its
    x disjunct, then both, then only y — one event, not two. mote2
    shakes along y alone, then again after a quiet gap (two events);
    mote3 stays quiet.
    """
    engine = build_lab(EngineConfig(observability=observability))
    for name, predicate in OR_QUERIES.items():
        engine.execute(f'''CREATE AQ {name} AS
            SELECT photo(c.ip, s.loc, "photos/{name}")
            FROM sensor s, camera c
            WHERE ({predicate}) AND coverage(c.id, s.loc)''')
    mote1, mote2 = (engine.comm.registry.get(name)
                    for name in ("mote1", "mote2"))
    mote1.inject(SensorStimulus("accel_x", start=2.0, duration=7.0,
                                magnitude=850.0))
    mote1.inject(SensorStimulus("accel_y", start=6.0, duration=8.0,
                                magnitude=700.0))
    mote2.inject(SensorStimulus("accel_y", start=4.0, duration=4.0,
                                magnitude=900.0))
    mote2.inject(SensorStimulus("accel_y", start=16.0, duration=4.0,
                                magnitude=900.0))
    engine.start()
    engine.run(until=40.0)
    return engine


@pytest.mark.parametrize("observability", [False, True])
def test_or_predicates_identity(scans, observability):
    engine = or_scenario(observability)
    assert_matches_reference(engine, scans, events=10)
    detected = {name: query.events_detected for name, query
                in engine.continuous.queries.items()}
    # Moving between disjuncts of one AQ is the same event.
    assert detected == {"either_axis": 3, "band_or_never": 1,
                        "hot_shake": 3, "unrouted": 3}
    stats = engine.statistics()
    assert stats["predicate_index_queries"] == 4
    assert stats["predicate_index_indexed_queries"] == 3
    assert stats["predicate_index_residual_only_queries"] == 1
    assert stats["predicate_index_disjuncts"] == 2 + 2 + 3 + 1


def test_disabled_query_sees_no_evaluation():
    """A disabled AQ is filtered before its residual runs."""
    engine = build_lab()
    engine.execute('''CREATE AQ shaken AS
        SELECT photo(c.ip, s.loc, "photos/shaken")
        FROM sensor s, camera c
        WHERE abs(s.accel_x) > 500 AND coverage(c.id, s.loc)''')
    calls = []
    call = engine.functions.call
    engine.functions.call = lambda name, args: (calls.append(name),
                                                call(name, args))[1]
    engine.disable_query("shaken")
    engine.start()
    engine.run(until=3.0)
    assert calls == []
    engine.enable_query("shaken")
    engine.run(until=6.0)
    assert set(calls) == {"abs"}


def test_idle_table_scan_and_index_retired():
    """Dropping a table's last reader retires its scan and index."""
    engine = build_lab()
    engine.execute(FIGURE_1)
    engine.start()
    engine.run(until=3.0)
    continuous = engine.continuous
    assert "sensor" in continuous._scans
    assert "sensor" in continuous._indexes
    engine.execute("DROP AQ snapshot")
    assert "sensor" not in continuous.catalog.by_table
    assert "sensor" not in continuous._scans
    assert "sensor" not in continuous._indexes


def test_second_reader_keeps_the_scan_alive():
    engine = build_lab()
    engine.execute(FIGURE_1)
    engine.execute('''CREATE AQ hot AS
        SELECT photo(c.ip, s.loc, "photos/hot")
        FROM sensor s, camera c
        WHERE s.temperature > 90 AND coverage(c.id, s.loc)''')
    engine.start()
    engine.run(until=3.0)
    continuous = engine.continuous
    engine.execute("DROP AQ snapshot")
    assert "sensor" in continuous._scans
    assert "sensor" in continuous._indexes
    assert "snapshot" not in continuous._indexes["sensor"]
    engine.execute("DROP AQ hot")
    assert "sensor" not in continuous._scans
    assert "sensor" not in continuous._indexes
