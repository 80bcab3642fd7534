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


# ----------------------------------------------------------------------
# What a registered AQ keeps resident
# ----------------------------------------------------------------------
def _resident(root):
    """Every object a registered AQ holds on its own: its plan, AST,
    bands and index entries, through slots, containers and
    ``__dict__``s. The action definition is one per action, shared by
    every AQ that embeds it, so the walk stops there."""
    from repro.actions.action import ActionDefinition

    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or obj is None or isinstance(
                obj, (str, int, float, ActionDefinition)):
            continue
        seen.add(id(obj))
        if isinstance(obj, (tuple, list)):
            stack.extend(obj)
            continue
        if isinstance(obj, dict):
            stack.extend(obj.values())
            continue
        found.append(obj)
        for cls in type(obj).__mro__:
            stack.extend(getattr(obj, name, None)
                         for name in cls.__dict__.get("__slots__", ()))
        stack.extend(getattr(obj, "__dict__", {}).values())
    return found


def test_nothing_a_registered_aq_keeps_has_a_dict(engine):
    """Slotted records: a per-instance ``__dict__`` on every AST node,
    band and plan was most of what an AQ cost in memory."""
    registered = engine.execute('''CREATE AQ warm AS
        SELECT photo(c.ip, s.loc, "photos/warm")
        FROM sensor s, camera c
        WHERE s.temperature > 30 AND (s.light > 5 OR s.accel_x >= 500)
          AND s.temperature + 1 <> s.light AND coverage(c.id, s.loc)''')
    mote = engine.comm.registry.get("mote2")
    mote.inject(SensorStimulus("temperature", start=2.0, duration=2.0,
                               magnitude=40.0))
    engine.start()
    engine.run(until=20.0)
    assert registered.candidate_analysed  # its cached refs are walked
    entries = engine.continuous._indexes["sensor"]._entries["warm"]
    assert len(entries) == 2  # one per disjunct

    resident = _resident((registered, entries))
    kinds = {type(obj).__name__ for obj in resident}
    assert {"RegisteredQuery", "ContinuousPlan", "Band", "_IndexEntry",
            "ColumnRef", "Comparison", "Arithmetic", "FunctionCall",
            "Literal"} <= kinds
    assert [type(obj).__name__ for obj in resident
            if hasattr(obj, "__dict__")] == []


def test_two_aqs_naming_a_column_hold_one_column_node(engine):
    plans = [engine.execute(f'''CREATE AQ {name} AS
        SELECT photo(c.ip, s.loc, "p")
        FROM sensor s, camera c
        WHERE s.temperature {op} 30 AND coverage(c.id, s.loc)''').plan
             for name, op in (("hot", ">"), ("cold", "<"))]
    hot, cold = (plan.event_predicate.left for plan in plans)
    assert str(hot) == "s.temperature"
    assert hot is cold
    hot_call, cold_call = (plan.candidate_predicate for plan in plans)
    assert [arg is other for arg, other
            in zip(hot_call.args, cold_call.args)] == [True, True]
