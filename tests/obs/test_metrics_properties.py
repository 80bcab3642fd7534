"""Property tests of the metrics layer (hypothesis).

Three invariants the observability design leans on:

* histogram merge is associative and commutative, so sharded
  registries combine in any order and still agree byte-for-byte;
* snapshots are idempotent — reading a registry never perturbs it;
* engine counters are monotone across ``run()`` calls — resuming a run
  only ever adds.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.obs.metrics import Histogram, MetricsRegistry

values = st.lists(
    st.floats(min_value=0.0, max_value=500.0,
              allow_nan=False, allow_infinity=False),
    max_size=30)


def _hist_of(observations):
    hist = Histogram()
    for value in observations:
        hist.observe(value)
    return hist


def _state(hist):
    return (hist.counts, hist.total, hist.count, hist.min, hist.max)


@settings(deadline=None)
@given(values, values)
def test_histogram_merge_commutative(xs, ys):
    ab = _hist_of(xs)
    ab.merge(_hist_of(ys))
    ba = _hist_of(ys)
    ba.merge(_hist_of(xs))
    assert ab.counts == ba.counts
    assert ab.count == ba.count
    assert (ab.min, ab.max) == (ba.min, ba.max)
    assert abs(ab.total - ba.total) <= 1e-9 * max(1.0, abs(ab.total))


@settings(deadline=None)
@given(values, values, values)
def test_histogram_merge_associative(xs, ys, zs):
    left = _hist_of(xs)
    left.merge(_hist_of(ys))
    left.merge(_hist_of(zs))
    inner = _hist_of(ys)
    inner.merge(_hist_of(zs))
    right = _hist_of(xs)
    right.merge(inner)
    assert left.counts == right.counts
    assert left.count == right.count
    assert (left.min, left.max) == (right.min, right.max)
    assert abs(left.total - right.total) \
        <= 1e-9 * max(1.0, abs(left.total))


@settings(deadline=None)
@given(values, values)
def test_registry_merge_commutative_snapshot(xs, ys):
    def build(observations, start):
        registry = MetricsRegistry()
        for value in observations:
            registry.counter("events", kind="tick").inc()
            registry.family(Histogram, "latency",
                            "kind")["tick"].observe(value)
        registry.gauge("level").set(start)
        return registry

    ab = build(xs, 1.0)
    ab.merge(build(ys, 2.0))
    ba = build(ys, 2.0)
    ba.merge(build(xs, 1.0))
    assert json.dumps(ab.snapshot(), sort_keys=True) \
        == json.dumps(ba.snapshot(), sort_keys=True)


ops = st.lists(
    st.tuples(st.sampled_from(["inc", "observe", "gauge"]),
              st.floats(min_value=0.0, max_value=100.0,
                        allow_nan=False, allow_infinity=False)),
    max_size=40)


@settings(deadline=None)
@given(ops)
def test_snapshot_idempotent(operations):
    registry = MetricsRegistry()
    for op, value in operations:
        if op == "inc":
            registry.counter("count", op=op).inc(value)
        elif op == "observe":
            registry.family(Histogram, "dist", "op")[op].observe(value)
        else:
            registry.gauge("level", op=op).set(value)
    first = registry.snapshot()
    second = registry.snapshot()
    assert first == second
    # And reading did not perturb the registry itself.
    assert registry.snapshot() == first


@settings(max_examples=5, deadline=None)
@given(st.integers(min_value=1, max_value=4))
def test_engine_counters_monotone_across_runs(splits):
    """Running the engine further only ever increases counters."""
    from repro import (
        AortaEngine, EngineConfig, Environment, PanTiltZoomCamera,
        Point, SensorMote, SensorStimulus,
    )
    env = Environment()
    engine = AortaEngine(env, config=EngineConfig(observability=True))
    engine.add_device(PanTiltZoomCamera(env, "cam1", Point(0, 0)))
    mote = SensorMote(env, "mote1", Point(5, 3), noise_amplitude=0.0)
    engine.add_device(mote)
    engine.execute('''CREATE AQ snapshot AS
        SELECT photo(c.ip, s.loc, "photos/admin")
        FROM sensor s, camera c
        WHERE s.accel_x > 500 AND coverage(c.id, s.loc)''')
    mote.inject(SensorStimulus("accel_x", start=2.0, duration=3.0,
                               magnitude=850.0))
    engine.start()
    horizon = 24.0
    previous = {}
    for stop in range(1, splits + 1):
        engine.run(until=horizon * stop / splits)
        counters = engine.metrics()["counters"]
        for key, floor in previous.items():
            assert counters.get(key, 0.0) >= floor, key
        previous = counters
