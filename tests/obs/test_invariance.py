"""Observability-off invariance: the disabled path changes nothing.

``pre_instrumentation_ft.json`` was captured from the PR-2
fault-tolerance scenario *before* any instrumentation existed in the
source tree. Replaying the same scenario with the observability knob
absent or off through the instrumented code must reproduce that dump
byte for byte — proving the default-off path is inert. (The capture
has since gained one key, ``statistics.predicate_index_tables``, which
every engine reports.)
"""

from repro import AortaEngine, EngineConfig, Environment
from tests.obs.golden import diff_dumps, dump_engine, load_golden, render_diff
from tests.obs.scenarios import ft_scenario, snapshot_scenario


def assert_matches_pre_instrumentation(engine):
    golden = load_golden("pre_instrumentation_ft")
    assert golden is not None, "pre-instrumentation golden missing"
    differences = diff_dumps(golden, dump_engine(engine))
    assert not differences, \
        render_diff("pre_instrumentation_ft", differences)


def test_observability_defaults_off():
    assert EngineConfig().observability is False
    assert AortaEngine(Environment()).obs.enabled is False


def test_knob_unset_matches_pre_instrumentation_capture():
    assert_matches_pre_instrumentation(ft_scenario(observability=None))


def test_knob_false_matches_pre_instrumentation_capture():
    assert_matches_pre_instrumentation(ft_scenario(observability=False))


def test_disabled_engine_emits_no_spans_or_metrics():
    """No spans and no timings; counters are the engine's state and
    count either way, the same as with observability on."""
    engine = snapshot_scenario(observability=False)
    assert engine.tracer.of_kind("span") == []
    snapshot = engine.metrics()
    assert snapshot["gauges"] == {} and snapshot["histograms"] == {}
    assert snapshot["counters"] == \
        snapshot_scenario(observability=True).metrics()["counters"]
    assert "metrics" not in dump_engine(engine)
