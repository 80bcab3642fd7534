"""Engine edge cases: DDL errors, pause/resume, clock misuse."""

import pytest

from repro.errors import ParseError, QueryError, SimulationError
from repro import SensorStimulus
from repro.sim import Environment
from tests.core.conftest import FIGURE_1


def test_malformed_sql_raises_parse_error(engine):
    with pytest.raises(ParseError):
        engine.execute("CREATE SOMETHING WEIRD")


def test_sql_with_position_info(engine):
    with pytest.raises(ParseError, match="line"):
        engine.execute("SELECT\nFROM sensor s")


def test_enable_disable_query(engine):
    engine.execute(FIGURE_1)
    engine.disable_query("snapshot")
    assert not engine.continuous.queries["snapshot"].enabled
    engine.enable_query("snapshot")
    assert engine.continuous.queries["snapshot"].enabled


def test_toggle_unknown_query(engine):
    with pytest.raises(QueryError, match="no registered query"):
        engine.disable_query("ghost")


def test_disable_actually_pauses_detection(engine):
    engine.execute(FIGURE_1)
    engine.disable_query("snapshot")
    mote = engine.comm.registry.get("mote1")
    mote.inject(SensorStimulus("accel_x", start=2.0, duration=2.0,
                               magnitude=900.0))
    engine.start()
    engine.run(until=20.0)
    assert engine.completed_requests == []


def test_clock_rejects_backwards_motion():
    env = Environment()
    env.run(until=5.0)
    env.event().succeed()
    env.step()  # same time is fine
    assert env.now == 5.0
    # Only a corrupted queue can hold an entry from the past.
    env._queue.append((4.0, 1, 0, env.event()))
    with pytest.raises(SimulationError, match="backwards from 5.0 to 4.0"):
        env.step()
    assert env.now == 5.0


def test_engine_run_returns_final_time(engine):
    assert engine.run(until=12.5) == 12.5
    assert engine.env.now == 12.5


def test_two_engines_are_isolated():
    """Separate environments never share state."""
    from tests.core.conftest import build_lab
    first = build_lab()
    second = build_lab()
    first.execute(FIGURE_1)
    assert "snapshot" in first.continuous.queries
    assert "snapshot" not in second.continuous.queries
    first.run(until=5.0)
    assert second.env.now == 0.0
