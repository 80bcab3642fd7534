"""Integration tests: the engine end to end on the Figure 1 scenario."""

import pytest

from repro.errors import AortaError, BindingError, QueryError
from repro import SensorStimulus
from repro.actions.request import RequestState
from tests.core.conftest import FIGURE_1


def test_create_aq_registers_query(engine):
    registered = engine.execute(FIGURE_1)
    assert registered.name == "snapshot"
    assert "snapshot" in engine.continuous.queries


def test_drop_aq_unregisters(engine):
    engine.execute(FIGURE_1)
    engine.execute("DROP AQ snapshot")
    assert "snapshot" not in engine.continuous.queries


def test_drop_unknown_aq_rejected(engine):
    from repro.errors import RegistrationError
    with pytest.raises(RegistrationError, match="no registered query"):
        engine.execute("DROP AQ ghost")


def test_event_triggers_photo(engine):
    engine.execute(FIGURE_1)
    mote = engine.comm.registry.get("mote1")
    mote.inject(SensorStimulus("accel_x", start=2.0, duration=2.5,
                               magnitude=800.0))
    engine.start()
    engine.run(until=20.0)
    requests = engine.completed_requests
    assert len(requests) == 1
    request = requests[0]
    assert request.state is RequestState.SERVICED
    assert request.query_id == "snapshot"
    photo = request.result
    assert photo.ok
    assert photo.directory == "photos/admin"
    # The chosen camera actually covers the mote's location.
    camera = engine.comm.registry.get(request.assigned_device)
    assert camera.covers(photo.target)


def test_edge_triggering_fires_once_per_event(engine):
    engine.execute(FIGURE_1)
    mote = engine.comm.registry.get("mote1")
    # One long stimulus spanning many polls: one event.
    mote.inject(SensorStimulus("accel_x", start=2.0, duration=8.0,
                               magnitude=800.0))
    engine.start()
    engine.run(until=30.0)
    assert len(engine.completed_requests) == 1


def test_separate_events_fire_separately(engine):
    engine.execute(FIGURE_1)
    mote = engine.comm.registry.get("mote1")
    mote.inject(SensorStimulus("accel_x", start=2.0, duration=2.0,
                               magnitude=800.0))
    mote.inject(SensorStimulus("accel_x", start=10.0, duration=2.0,
                               magnitude=800.0))
    engine.start()
    engine.run(until=40.0)
    assert len(engine.completed_requests) == 2


def test_concurrent_queries_share_action_operator(engine):
    engine.execute(FIGURE_1)
    engine.execute('''CREATE AQ snapshot2 AS
        SELECT photo(c.ip, s.loc, "photos/backup")
        FROM sensor s, camera c
        WHERE s.accel_x > 300 AND coverage(c.id, s.loc)''')
    operator = engine.dispatcher.operator_for(engine.actions.get("photo"))
    assert operator.shared


def test_shared_operator_batches_requests_from_multiple_queries(engine):
    engine.execute(FIGURE_1)
    engine.execute('''CREATE AQ snapshot2 AS
        SELECT photo(c.ip, s.loc, "photos/backup")
        FROM sensor s, camera c
        WHERE s.accel_x > 300 AND coverage(c.id, s.loc)''')
    mote = engine.comm.registry.get("mote2")
    mote.inject(SensorStimulus("accel_x", start=2.0, duration=2.5,
                               magnitude=900.0))
    engine.start()
    engine.run(until=30.0)
    # Both queries fired on the same event; one batch dispatched both.
    assert len(engine.completed_requests) == 2
    assert {r.query_id for r in engine.completed_requests} == {
        "snapshot", "snapshot2"}
    batch_report = engine.dispatcher.reports[0]
    assert batch_report.batch_size == 2


def test_event_with_no_covering_camera_is_uncovered(engine):
    env = engine.env
    from repro import Point, SensorMote
    far_mote = SensorMote(env, "far", Point(500, 500), noise_amplitude=0.0)
    engine.add_device(far_mote)
    engine.execute(FIGURE_1)
    far_mote.inject(SensorStimulus("accel_x", start=2.0, duration=2.0,
                                   magnitude=900.0))
    engine.start()
    engine.run(until=10.0)
    assert engine.completed_requests == []
    assert engine.continuous.queries["snapshot"].uncovered_events == 1


def test_offline_camera_excluded_by_probe(engine):
    engine.execute(FIGURE_1)
    engine.comm.registry.get("cam1").go_offline()
    mote = engine.comm.registry.get("mote1")
    mote.inject(SensorStimulus("accel_x", start=2.0, duration=2.0,
                               magnitude=800.0))
    engine.start()
    engine.run(until=30.0)
    request = engine.completed_requests[0]
    assert request.state is RequestState.SERVICED
    assert request.assigned_device == "cam2"


def test_all_cameras_offline_request_fails(engine):
    engine.execute(FIGURE_1)
    engine.comm.registry.get("cam1").go_offline()
    engine.comm.registry.get("cam2").go_offline()
    mote = engine.comm.registry.get("mote1")
    mote.inject(SensorStimulus("accel_x", start=2.0, duration=2.0,
                               magnitude=800.0))
    engine.start()
    engine.run(until=30.0)
    request = engine.completed_requests[0]
    assert request.state is RequestState.FAILED
    assert "no available candidate" in request.failure_reason


def test_statistics_snapshot(engine):
    engine.execute(FIGURE_1)
    engine.start()
    engine.run(until=5.0)
    stats = engine.statistics()
    assert stats["devices"] == 6
    assert stats["queries"] == 1
    assert stats["polls"] >= 1


def test_engine_start_twice_rejected(engine):
    engine.start()
    with pytest.raises(AortaError, match="already started"):
        engine.start()


def test_run_select_rejects_aq(engine):
    with pytest.raises(QueryError, match="only executes SELECT"):
        engine.run_select(FIGURE_1)
