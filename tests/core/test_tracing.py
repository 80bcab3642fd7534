"""Tests for the engine trace log."""

import pytest

from repro import SensorStimulus
from repro.core.tracing import EngineTracer, TraceRecord
from tests.core.conftest import FIGURE_1


# ----------------------------------------------------------------------
# The tracer itself
# ----------------------------------------------------------------------

def test_record_and_filter():
    tracer = EngineTracer()
    tracer.record(1.0, "event_detected", query="q1", sensor="m1")
    tracer.record(2.0, "request_serviced", request="r1")
    tracer.record(3.0, "event_detected", query="q2", sensor="m2")
    assert len(tracer) == 3
    detected = tracer.of_kind("event_detected")
    assert [r["query"] for r in detected] == ["q1", "q2"]


def test_bounded_retention():
    tracer = EngineTracer(max_records=3)
    for i in range(10):
        tracer.record(float(i), "event_detected", index=i)
    assert len(tracer) == 3
    assert [r["index"] for r in tracer] == [7, 8, 9]


def test_listener_called():
    tracer = EngineTracer()
    seen = []
    tracer.listener = seen.append
    record = tracer.record(1.0, "query_dropped", query="q")
    assert seen == [record]


def test_render_and_clear():
    tracer = EngineTracer()
    tracer.record(1.5, "probe_failed", device="cam9", error="timeout")
    text = tracer.tail()
    assert "probe_failed" in text and "cam9" in text
    tracer.clear()
    assert len(tracer) == 0


def test_record_str():
    record = TraceRecord(at=2.0, kind="request_failed",
                         fields={"device": "cam1"})
    assert "request_failed" in str(record)
    assert record["device"] == "cam1"


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------

def test_engine_traces_full_lifecycle(engine):
    engine.execute(FIGURE_1)
    mote = engine.comm.registry.get("mote1")
    mote.inject(SensorStimulus("accel_x", start=2.0, duration=2.0,
                               magnitude=900.0))
    engine.start()
    engine.run(until=30.0)
    kinds = {record.kind for record in engine.tracer}
    assert {"query_registered", "event_detected", "request_emitted",
            "batch_dispatched", "request_serviced"} <= kinds
    # Timestamps are monotone non-decreasing.
    times = [record.at for record in engine.tracer]
    assert times == sorted(times)


def test_engine_traces_probe_failures(engine):
    engine.execute(FIGURE_1)
    engine.comm.registry.get("cam1").go_offline()
    mote = engine.comm.registry.get("mote1")
    mote.inject(SensorStimulus("accel_x", start=2.0, duration=2.0,
                               magnitude=900.0))
    engine.start()
    engine.run(until=30.0)
    failures = engine.tracer.of_kind("probe_failed")
    assert len(failures) == 1
    assert failures[0]["device"] == "cam1"


def test_engine_traces_drop(engine):
    engine.execute(FIGURE_1)
    engine.execute("DROP AQ snapshot")
    assert [r["query"] for r in engine.tracer.of_kind("query_dropped")] \
        == ["snapshot"]
