"""Continuous-executor details: registration rules, enable flag, counters."""

import pytest

from repro.errors import PlanError, RegistrationError
from repro import SensorStimulus
from tests.core.conftest import FIGURE_1


def test_duplicate_query_name_rejected(engine):
    engine.execute(FIGURE_1)
    with pytest.raises(RegistrationError, match="already registered"):
        engine.execute(FIGURE_1)


def test_candidate_predicate_on_sensory_attribute_rejected(engine):
    """Device status comes from probing, not candidate predicates."""
    with pytest.raises(PlanError, match="sensory attribute"):
        engine.execute('''CREATE AQ bad AS
            SELECT photo(c.ip, s.loc, "p")
            FROM sensor s, camera c
            WHERE s.accel_x > 500 AND c.zoom < 5''')


def test_candidate_predicate_on_static_attribute_allowed(engine):
    registered = engine.execute('''CREATE AQ ok AS
        SELECT photo(c.ip, s.loc, "p")
        FROM sensor s, camera c
        WHERE s.accel_x > 500 AND c.ip <> "10.0.0.9"''')
    assert registered.name == "ok"


def test_candidate_predicate_loc_pseudo_column_allowed(engine):
    registered = engine.execute('''CREATE AQ near AS
        SELECT photo(c.ip, s.loc, "p")
        FROM sensor s, camera c
        WHERE s.accel_x > 500 AND distance(c.loc, s.loc) < 30''')
    assert registered.name == "near"


def test_disabled_query_detects_nothing(engine):
    registered = engine.execute(FIGURE_1)
    registered.enabled = False
    mote = engine.comm.registry.get("mote1")
    mote.inject(SensorStimulus("accel_x", start=2.0, duration=2.0,
                               magnitude=900.0))
    engine.start()
    engine.run(until=20.0)
    assert registered.events_detected == 0
    assert engine.completed_requests == []


def test_reenabled_query_resumes(engine):
    registered = engine.execute(FIGURE_1)
    registered.enabled = False
    mote = engine.comm.registry.get("mote1")
    mote.inject(SensorStimulus("accel_x", start=2.0, duration=2.0,
                               magnitude=900.0))
    mote.inject(SensorStimulus("accel_x", start=30.0, duration=2.0,
                               magnitude=900.0))

    def reenable(env):
        yield env.timeout(20.0)
        registered.enabled = True

    engine.env.process(reenable(engine.env))
    engine.start()
    engine.run(until=60.0)
    assert registered.events_detected == 1


def test_query_counters(engine):
    registered = engine.execute(FIGURE_1)
    mote = engine.comm.registry.get("mote2")
    mote.inject(SensorStimulus("accel_x", start=2.0, duration=2.0,
                               magnitude=900.0))
    engine.start()
    engine.run(until=20.0)
    assert registered.events_detected == 1
    assert registered.requests_emitted == 1
    assert registered.uncovered_events == 0
    assert engine.statistics()["polls"] > 5


def test_dropped_query_pending_requests_discarded(engine):
    """DROP AQ while a request waits in the shared operator removes it."""
    engine.execute(FIGURE_1)
    operator = engine.dispatcher.operator_for(engine.actions.get("photo"))
    from repro.actions.request import ActionRequest
    operator.submit(ActionRequest(
        action_name="photo",
        arguments={"target": None, "directory": "p"},
        query_id="snapshot", candidates=("cam1",)))
    assert operator.pending_count == 1
    engine.execute("DROP AQ snapshot")
    assert operator.pending_count == 0
