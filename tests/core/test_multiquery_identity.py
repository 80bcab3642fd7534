"""Golden identity: the predicate index must not change behaviour.

``predicate_index=True`` switches the continuous executor from the
scan-all walk to indexed matching. Every scenario here runs twice —
knob off and knob on — and the normalized engine dumps (full trace,
statistics, serviced sets, metric snapshots) must be identical, across
observability on/off, both runtime backends, and both fleet widths.
The only tolerated difference is the ``predicate_index_*`` statistics
block, which exists only when the knob is on and is stripped before
diffing.
"""

import pytest

from repro import EngineConfig
from repro.devices.sensor import SensorStimulus

from tests.core.conftest import FIGURE_1, build_lab
from tests.obs.golden import diff_dumps, dump_engine
from tests.obs.scenarios import (
    continuous_outage_scenario,
    snapshot_scenario,
)
from tests.shard.scenarios import (
    region_fleet_scenario,
    sharded_snapshot_scenario,
)


def normalized(engine):
    dump = dump_engine(engine)
    dump["statistics"] = {
        key: value for key, value in dump["statistics"].items()
        if not key.startswith("predicate_index_")
    }
    return dump


def assert_identical(baseline, indexed):
    differences = diff_dumps(normalized(baseline), normalized(indexed))
    assert not differences, "\n".join(differences)


@pytest.mark.parametrize("observability", [False, True])
def test_snapshot_identity(observability):
    assert_identical(
        snapshot_scenario(observability),
        snapshot_scenario(observability, predicate_index=True))


@pytest.mark.parametrize("observability", [False, True])
def test_continuous_outage_identity(observability):
    assert_identical(
        continuous_outage_scenario(observability),
        continuous_outage_scenario(observability, predicate_index=True))


def test_snapshot_identity_realtime_backend():
    assert_identical(
        snapshot_scenario(True, runtime="realtime", time_scale=0.0),
        snapshot_scenario(True, runtime="realtime", time_scale=0.0,
                          predicate_index=True))


def test_continuous_outage_identity_realtime_backend():
    assert_identical(
        continuous_outage_scenario(True, runtime="realtime",
                                   time_scale=0.0),
        continuous_outage_scenario(True, runtime="realtime",
                                   time_scale=0.0,
                                   predicate_index=True))


def test_single_shard_identity():
    assert_identical(
        sharded_snapshot_scenario(True),
        sharded_snapshot_scenario(True, predicate_index=True))


def test_four_shard_identity():
    baseline = region_fleet_scenario(4, True)
    indexed = region_fleet_scenario(4, True, predicate_index=True)
    for base_shard, indexed_shard in zip(baseline.shards,
                                         indexed.shards):
        assert_identical(base_shard, indexed_shard)


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


def or_scenario(observability, **config_kwargs):
    """Stimuli that walk rows from one disjunct of an AQ to another.

    mote1 shakes along x from 2 s to 9 s and along y from 6 s to 14 s:
    ``either_axis`` holds from 2 s to 14 s without a gap, first by its
    x disjunct, then both, then only y — one event, not two. mote2
    shakes along y alone, then again after a quiet gap (two events);
    mote3 stays quiet.
    """
    engine = build_lab(EngineConfig(observability=observability,
                                    **config_kwargs))
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
def test_or_predicates_identity(observability):
    baseline = or_scenario(observability)
    indexed = or_scenario(observability, predicate_index=True)
    assert_identical(baseline, indexed)
    for engine in (baseline, indexed):
        detected = {name: query.events_detected for name, query
                    in engine.continuous.queries.items()}
        # Moving between disjuncts of one AQ is the same event.
        assert detected == {"either_axis": 3, "band_or_never": 1,
                            "hot_shake": 3, "unrouted": 3}
    stats = indexed.statistics()
    assert stats["predicate_index_queries"] == 4
    assert stats["predicate_index_indexed_queries"] == 3
    assert stats["predicate_index_residual_only_queries"] == 1
    assert stats["predicate_index_disjuncts"] == 2 + 2 + 3 + 1


@pytest.mark.parametrize("indexed", [False, True])
def test_idle_table_scan_and_index_retired(indexed):
    """Dropping a table's last reader retires its scan and index."""
    engine = build_lab(EngineConfig(predicate_index=indexed))
    engine.execute(FIGURE_1)
    engine.start()
    engine.run(until=3.0)
    continuous = engine.continuous
    assert "sensor" in continuous._scans
    assert ("sensor" in continuous._indexes) == indexed
    engine.execute("DROP AQ snapshot")
    assert "sensor" not in continuous._queries_by_table
    assert "sensor" not in continuous._scans
    assert "sensor" not in continuous._indexes


def test_second_reader_keeps_the_scan_alive():
    engine = build_lab(EngineConfig(predicate_index=True))
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
