"""Tracer satellites: deque eviction and TRACE_KINDS exhaustiveness."""

from repro.core.tracing import (
    MAX_RECORDS,
    TAIL_RECORDS,
    TRACE_KINDS,
    EngineTracer,
)
from tests.obs.scenarios import (
    continuous_outage_scenario,
    ft_scenario,
    overload_storm_scenario,
    snapshot_scenario,
)


class TestEviction:
    """A tracer keeps the newest :data:`MAX_RECORDS` records."""

    def test_bounded_at_max_records(self):
        tracer = EngineTracer()
        for i in range(MAX_RECORDS + 15):
            tracer.record(float(i), "request_serviced", serial=i)
        assert len(tracer) == MAX_RECORDS

    def test_keeps_newest_drops_oldest(self):
        tracer = EngineTracer()
        for i in range(MAX_RECORDS + 7):
            tracer.record(float(i), "request_serviced", serial=i)
        assert [r.fields["serial"] for r in tracer] \
            == list(range(7, MAX_RECORDS + 7))

    def test_records_property_and_tail_agree(self):
        tracer = EngineTracer()
        for i in range(MAX_RECORDS + 2):
            tracer.record(float(i), "request_serviced", serial=i)
        records = list(tracer)
        assert [r.fields["serial"] for r in records] \
            == list(range(2, MAX_RECORDS + 2))
        assert tracer.tail() == "\n".join(
            str(r) for r in records[-TAIL_RECORDS:])

    def test_tail_of_zero_records_is_empty(self):
        tracer = EngineTracer()
        assert tracer.tail() == ""
        for i in range(3):
            tracer.record(float(i), "request_serviced", serial=i)
        assert tracer.tail().count("\n") == 2

    def test_filters_survive_eviction(self):
        tracer = EngineTracer()
        for i in range(MAX_RECORDS + 4):
            kind = "request_serviced" if i % 2 else "request_failed"
            tracer.record(float(i), kind, serial=i)
        serviced = tracer.of_kind("request_serviced")
        assert [r.fields["serial"] for r in serviced] \
            == list(range(5, MAX_RECORDS + 4, 2))


class TestStrictKinds:
    def test_lenient_by_default(self):
        # Kinds are not checked per record: TestExhaustiveness proves
        # from the canonical runs that no emitter mints an undeclared
        # one.
        tracer = EngineTracer()
        tracer.record(0.0, "not_a_kind")
        assert list(tracer)[-1].kind == "not_a_kind"


class TestExhaustiveness:
    def test_trace_kinds_has_no_duplicates(self):
        assert len(TRACE_KINDS) == len(set(TRACE_KINDS))

    def test_scenarios_exercise_every_trace_kind(self):
        """Set equality: the canonical scenarios emit every declared
        kind, and never an undeclared one — so TRACE_KINDS can neither
        rot (dead kinds) nor lag (unregistered kinds)."""
        observed = set()
        for engine in (snapshot_scenario(observability=True),
                       continuous_outage_scenario(observability=True),
                       ft_scenario(observability=True),
                       overload_storm_scenario(observability=True)):
            observed |= {record.kind for record in engine.tracer}

        # The two kinds the canonical runs cannot reach: dropping the
        # registered AQ, and a probe that finds its device gone.
        engine = snapshot_scenario(observability=True)
        engine.execute("DROP AQ snapshot")
        env = engine.env
        for device in list(engine.comm.registry.of_type("camera")):
            device.go_offline()
        engine.execute('''CREATE AQ snapshot2 AS
            SELECT photo(c.ip, s.loc, "photos/admin")
            FROM sensor s, camera c
            WHERE s.accel_x > 500 AND coverage(c.id, s.loc)''')
        from repro import SensorStimulus
        mote = next(iter(engine.comm.registry.of_type("sensor")))
        mote.inject(SensorStimulus("accel_x", start=env.now + 1.0,
                                   duration=3.0, magnitude=850.0))
        engine.run(until=env.now + 20.0)
        observed |= {record.kind for record in engine.tracer}

        assert observed == set(TRACE_KINDS)
