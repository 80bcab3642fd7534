"""The shared-scan optimization: one acquisition per table per poll.

The continuous executor scans each event table once per poll no matter
how many queries watch it — the data-acquisition analogue of shared
action operators.
"""

import pytest

from repro import SensorStimulus


def register_n_queries(engine, count):
    for i in range(count):
        engine.execute(f'''CREATE AQ q{i} AS
            SELECT photo(c.ip, s.loc, "photos/q{i}")
            FROM sensor s, camera c
            WHERE s.accel_x > {500 + i} AND coverage(c.id, s.loc)''')


def run_polls(engine, polls):
    """Rows scanned over ``polls`` polls: the index is asked once per row."""
    def driver(env):
        for _ in range(polls):
            yield from engine.continuous.poll_once()

    engine.env.process(driver(engine.env))
    engine.env.run()
    return engine.statistics()["predicate_index_lookups"]


def test_one_scan_per_poll_regardless_of_query_count(engine):
    register_n_queries(engine, 5)
    tuples = run_polls(engine, polls=4)
    # 3 motes x 4 polls, NOT x5 queries.
    assert tuples == 12


def test_single_query_same_scan_cost(engine):
    register_n_queries(engine, 1)
    assert run_polls(engine, polls=4) == 12


def test_all_queries_see_the_same_event(engine):
    register_n_queries(engine, 3)
    mote = engine.comm.registry.get("mote1")
    mote.inject(SensorStimulus("accel_x", start=2.0, duration=2.5,
                               magnitude=900.0))
    engine.start()
    engine.run(until=30.0)
    queries = engine.continuous.queries
    assert all(queries[f"q{i}"].events_detected == 1 for i in range(3))
