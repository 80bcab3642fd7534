"""Tests for the engine's observability surfaces."""

import pytest

from repro import SensorStimulus
from tests.core.conftest import FIGURE_1


def test_device_report_before_any_work(engine):
    report = engine.device_report()
    assert set(report) == {"cam1", "cam2", "mote1", "mote2", "mote3",
                           "phone1"}
    for entry in report.values():
        assert entry["operations"] == 0
        assert entry["busy_seconds"] == 0.0
        assert entry["state"] == "online"


def test_device_report_tracks_camera_work(engine):
    engine.execute(FIGURE_1)
    mote = engine.comm.registry.get("mote1")
    mote.inject(SensorStimulus("accel_x", start=2.0, duration=2.0,
                               magnitude=900.0))
    engine.start()
    engine.run(until=30.0)
    report = engine.device_report()
    worked = engine.completed_requests[0].assigned_device
    assert report[worked]["operations"] > 0
    assert report[worked]["busy_seconds"] > 0.36 - 1e-9
    assert 0 < report[worked]["utilization"] < 1


def test_device_report_reflects_state(engine):
    engine.comm.registry.get("cam2").crash()
    assert engine.device_report()["cam2"]["state"] == "crashed"


def test_statistics_consistent_with_report(engine):
    engine.execute(FIGURE_1)
    mote = engine.comm.registry.get("mote2")
    mote.inject(SensorStimulus("accel_x", start=2.0, duration=2.0,
                               magnitude=900.0))
    engine.start()
    engine.run(until=30.0)
    stats = engine.statistics()
    assert stats["requests_serviced"] == 1
    assert stats["requests_failed"] == 0
    assert stats["requests_completed"] == 1
    # The mote did scan work (read_attribute exchanges are device-free,
    # but probe/photo work shows on the chosen camera).
    report = engine.device_report()
    busy_cameras = [d for d in ("cam1", "cam2")
                    if report[d]["busy_seconds"] > 0]
    assert len(busy_cameras) == 1


def test_statistics_counters_match_completion_log(engine):
    """The O(1) dispatcher counters agree with a recount of the log."""
    engine.execute(FIGURE_1)
    for mote_id in ("mote1", "mote2", "mote3"):
        engine.comm.registry.get(mote_id).inject(
            SensorStimulus("accel_x", start=2.0, duration=2.0,
                           magnitude=900.0))
    engine.comm.registry.get("cam2").crash()
    engine.start()
    engine.run(until=60.0)
    stats = engine.statistics()
    from repro.actions.request import RequestState
    completed = engine.completed_requests
    assert stats["requests_serviced"] == sum(
        1 for r in completed if r.state is RequestState.SERVICED)
    assert stats["requests_failed"] == sum(
        1 for r in completed if r.state is RequestState.FAILED)
    assert stats["requests_completed"] == len(completed)
    assert stats["requests_completed"] == (
        stats["requests_serviced"] + stats["requests_failed"])


def test_dispatch_reports_expose_cache_stats(engine):
    """SRFAE keeps no cost memo, so no batch reports memo counters."""
    engine.execute(FIGURE_1)
    engine.comm.registry.get("mote1").inject(
        SensorStimulus("accel_x", start=2.0, duration=2.0, magnitude=900.0))
    engine.start()
    engine.run(until=30.0)
    reports = [r for r in engine.dispatcher.reports if r.scheduled]
    assert reports
    assert [r.cache_stats for r in reports] == [None] * len(reports)
