"""The acquisitional scan: a poll reads only what the AQs use.

The continuous executor keeps, per event table, the union of the
sensory columns its readers reference on the event alias, and sets it
on the table's scan operator at CREATE / DROP AQ. Rows carry only the
columns they were read with, so a query registered while its table's
scan is in flight is matched from the next poll on.
"""

from repro import SensorStimulus

from tests.core.conftest import FIGURE_1, build_lab

ALL_SENSORY = ("accel_x", "accel_y", "temperature", "light", "battery")


def aq(name, where):
    return f'''CREATE AQ {name} AS
        SELECT photo(c.ip, s.loc, "photos/{name}")
        FROM sensor s, camera c
        WHERE {where} AND coverage(c.id, s.loc)'''


def scanned_columns(engine):
    return engine.continuous._scans["sensor"].columns


def read_exchanges(engine):
    """``read_attributes`` round trips the engine has started."""
    return sum(counter.value for labels, counter
               in engine.comm.transport.obs.registry.labeled("comm.requests")
               if labels["kind"] == "read_attributes")


def test_projection_is_the_union_of_the_readers_columns():
    engine = build_lab()
    engine.execute(FIGURE_1)
    engine.start()
    engine.run(until=2.0)
    assert scanned_columns(engine) == ("accel_x",)
    # The event predicate, the candidate predicate and the argument
    # expressions all count; a column of the device alias does not.
    engine.execute(aq("hot", "s.temperature > 90"))
    engine.execute(aq("near", "s.accel_x > 700 AND c.loc_x < s.battery"))
    engine.execute('''CREATE AQ lit AS
        SELECT photo(c.ip, s.loc, s.light)
        FROM sensor s, camera c
        WHERE s.accel_x > 700 AND coverage(c.id, s.loc)''')
    assert scanned_columns(engine) == (
        "accel_x", "temperature", "light", "battery")
    engine.execute(aq("shaken", "s.accel_x > 600"))
    engine.execute("DROP AQ snapshot")
    engine.execute("DROP AQ near")
    assert scanned_columns(engine) == ("accel_x", "temperature", "light")
    engine.execute("DROP AQ shaken")
    engine.execute("DROP AQ lit")
    assert scanned_columns(engine) == ("temperature",)


def test_unqualified_column_reads_the_whole_row():
    engine = build_lab()
    engine.execute(FIGURE_1)
    engine.start()
    engine.run(until=2.0)
    engine.execute(aq("bare", "light > 9000"))
    assert scanned_columns(engine) == ALL_SENSORY
    engine.execute("DROP AQ bare")
    assert scanned_columns(engine) == ("accel_x",)


def test_static_columns_cost_no_exchange():
    """A table whose readers read no sensory column is scanned from the
    registry alone."""
    engine = build_lab()
    engine.execute(aq("placed", "s.loc_x > 5"))
    engine.start()
    engine.run(until=5.0)
    assert scanned_columns(engine) == ()
    stats = engine.statistics()
    assert stats["scan_rows"] == 3 * stats["polls"]
    assert read_exchanges(engine) == 0


def test_a_poll_costs_one_exchange_per_row():
    engine = build_lab()
    engine.execute(FIGURE_1)
    engine.execute(aq("hot", "s.temperature > 90"))
    engine.start()
    engine.run(until=10.0)
    stats = engine.statistics()
    assert stats["scan_rows_skipped"] == 0
    assert read_exchanges(engine) == stats["scan_rows"] == 3 * stats["polls"]


def test_query_created_mid_scan_sees_the_next_poll():
    """Registered while rows read with ``accel_x`` alone are in flight,
    an AQ that also reads ``temperature`` must not be matched against
    them (its residual would find no such column): it detects at the
    next poll, from rows that carry both."""
    engine = build_lab()
    engine.execute(FIGURE_1)
    engine.comm.registry.get("mote1").inject(SensorStimulus(
        "accel_x", start=0.0, duration=30.0, magnitude=900.0))
    created_at = []

    def create_mid_scan(env):
        yield env.timeout(0.05)  # the first scan ends at 0.08
        assert scanned_columns(engine) == ("accel_x",)
        engine.execute(aq("warm", "s.accel_x > 500 AND "
                                  "abs(s.temperature) > 10"))
        created_at.append(env.now)

    engine.start()
    engine.env.process(create_mid_scan(engine.env))
    engine.run(until=5.0)
    detections = {record["query"]: record.at for record
                  in engine.tracer.of_kind("event_detected")}
    assert created_at == [0.05]
    assert detections["snapshot"] < 0.1
    assert 1.0 < detections["warm"] < 1.2
    assert engine.continuous.queries["warm"].events_detected == 1
