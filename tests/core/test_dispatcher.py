"""Unit tests for the dispatcher: batching, probing, scheduler config."""

import pytest

from repro.errors import AortaError
from repro import EngineConfig, Point, SensorStimulus
from repro.actions.request import ActionRequest, RequestState
from repro.core.config import SCHEDULER_NAMES
from repro.core.dispatcher import SCHEDULER_FACTORIES
from repro.geometry import Point
from tests.core.conftest import build_lab


def make_request(engine, target, query_id=""):
    return ActionRequest(
        action_name="photo",
        arguments={"target": target, "directory": "photos"},
        query_id=query_id,
        created_at=engine.env.now,
        candidates=("cam1", "cam2"),
    )


def dispatch(engine, requests):
    action = engine.actions.get("photo")
    reports = []

    def proc(env):
        report = yield from engine.dispatcher.dispatch_batch(
            action, requests)
        reports.append(report)

    engine.env.process(proc(engine.env))
    engine.env.run()
    return reports[0]


def test_every_scheduler_name_has_factory():
    assert set(SCHEDULER_FACTORIES) == set(SCHEDULER_NAMES)


def test_dispatch_batch_services_requests(engine):
    requests = [make_request(engine, Point(4, 3)),
                make_request(engine, Point(16, 3))]
    report = dispatch(engine, requests)
    assert report.batch_size == 2
    assert report.serviced == 2
    assert report.failed == 0
    assert report.makespan_seconds > 0
    assert all(r.state is RequestState.SERVICED for r in requests)


def test_dispatch_spreads_load_across_cameras(engine):
    """Two far-apart targets should go to the two different cameras."""
    requests = [make_request(engine, Point(2, 3)),
                make_request(engine, Point(18, 3))]
    dispatch(engine, requests)
    assert {r.assigned_device for r in requests} == {"cam1", "cam2"}


def test_dispatch_excludes_probe_failures(engine):
    engine.comm.registry.get("cam1").go_offline()
    request = make_request(engine, Point(4, 3))
    report = dispatch(engine, [request])
    assert request.assigned_device == "cam2"
    assert report.serviced == 1


def test_dispatch_all_candidates_dead(engine):
    engine.comm.registry.get("cam1").go_offline()
    engine.comm.registry.get("cam2").go_offline()
    request = make_request(engine, Point(4, 3))
    report = dispatch(engine, [request])
    assert report.unschedulable == 1
    assert request.state is RequestState.FAILED


def test_no_probing_assigns_blind():
    engine = build_lab(config=EngineConfig(probing=False))
    engine.comm.registry.get("cam1").go_offline()
    engine.comm.registry.get("cam2").go_offline()
    request = make_request(engine, Point(4, 3))
    report = dispatch(engine, [request])
    # Without probing the dead camera is only discovered at execution.
    assert report.scheduled == 1
    assert request.state is RequestState.FAILED
    assert "offline" in request.failure_reason


def test_scheduler_configured_by_name():
    engine = build_lab(config=EngineConfig(scheduler="LERFA+SRFE"))
    assert engine.dispatcher.scheduler.name == "LERFA+SRFE"


def test_unknown_scheduler_rejected():
    with pytest.raises(AortaError, match="unknown scheduler"):
        EngineConfig(scheduler="QUANTUM")


def test_batch_window_groups_requests(engine):
    """Requests submitted within the window dispatch as one batch."""
    engine.execute('''CREATE AQ q1 AS
        SELECT photo(c.ip, s.loc, "p1") FROM sensor s, camera c
        WHERE s.accel_x > 500 AND coverage(c.id, s.loc)''')
    engine.execute('''CREATE AQ q2 AS
        SELECT photo(c.ip, s.loc, "p2") FROM sensor s, camera c
        WHERE s.accel_x > 400 AND coverage(c.id, s.loc)''')
    mote = engine.comm.registry.get("mote1")
    mote.inject(SensorStimulus("accel_x", start=2.0, duration=2.0,
                               magnitude=900.0))
    engine.start()
    engine.run(until=20.0)
    assert len(engine.dispatcher.reports) == 1
    assert engine.dispatcher.reports[0].batch_size == 2


def test_dispatcher_start_twice_rejected(engine):
    engine.dispatcher.start()
    with pytest.raises(AortaError, match="already started"):
        engine.dispatcher.start()


def test_unlocked_mode_runs_concurrently():
    engine = build_lab(config=EngineConfig(locking=False, probing=True))
    requests = [make_request(engine, Point(4, 3)),
                make_request(engine, Point(16, 3)),
                make_request(engine, Point(10, 3))]
    dispatch(engine, requests)
    assert engine.statistics()["lock_acquisitions"] == 0  # no locking happened
