"""Unit tests of the span layer (repro.obs.spans)."""

import pytest

from repro.errors import AortaError
from repro.core.tracing import EngineTracer
from repro.obs import Gauge, Histogram, Observability
from repro.sim import Environment
from repro.sync.locks import DeviceLockManager, LockToken


def make_obs():
    env = Environment()
    return Observability(env, enabled=True), env


def span_record(obs, name):
    for record in obs.tracer.of_kind("span"):
        if record.fields["name"] == name:
            return record
    raise AssertionError(f"no span record named {name!r}")


class TestLifecycle:
    def test_closing_emits_one_trace_record(self):
        obs, env = make_obs()
        with obs.span("work", device="cam1"):
            env.run(until=2.5)
        record = span_record(obs, "work")
        assert record.at == 2.5
        assert record.fields["start"] == 0.0
        assert record.fields["parent"] == 0
        assert record.fields["device"] == "cam1"

    def test_duration_lands_in_span_seconds_histogram(self):
        obs, env = make_obs()
        with obs.span("work"):
            env.run(until=3.0)
        snap = obs.registry.snapshot()
        assert snap["histograms"]["span.seconds{name=work}"]["sum"] == 3.0

    def test_span_ids_are_sequential(self):
        obs, _ = make_obs()
        with obs.span("a"):
            pass
        with obs.span("b"):
            pass
        assert [r.fields["span"] for r in obs.tracer.of_kind("span")] \
            == [1, 2]


class TestParenting:
    def test_plain_spans_nest_dynamically(self):
        obs, _ = make_obs()
        with obs.span("outer") as outer:
            with obs.span("inner"):
                pass
        assert span_record(obs, "inner").fields["parent"] == outer.span_id

    def test_detached_takes_stack_parent_but_stays_off_stack(self):
        obs, _ = make_obs()
        with obs.span("outer") as outer:
            with obs.span("poll", detached=True) as poll:
                # A sibling opened while the detached span is live must
                # parent to the *stack* (outer), not to the poll.
                with obs.span("sibling"):
                    pass
        assert span_record(obs, "poll").fields["parent"] == outer.span_id
        assert span_record(obs, "sibling").fields["parent"] \
            == outer.span_id
        assert poll.span_id != outer.span_id

    def test_explicit_parent_pins_off_stack(self):
        obs, _ = make_obs()
        with obs.span("batch") as batch:
            pass
        with obs.span("other"):
            with obs.span("execute", parent=batch):
                pass
        assert span_record(obs, "execute").fields["parent"] \
            == batch.span_id

    def test_out_of_order_close_between_processes(self):
        # Two interleaved sim processes close in non-stack order; each
        # record still carries the parent captured at open time.
        obs, _ = make_obs()
        a = obs.span("a")
        b = obs.span("b")
        a.__exit__(None, None, None)
        b.__exit__(None, None, None)
        assert span_record(obs, "b").fields["parent"] == a.span_id


class TestGuards:
    def test_reserved_label_rejected(self):
        obs, _ = make_obs()
        with pytest.raises(AortaError, match="reserved span fields"):
            obs.span("work", start=1.0)

    def test_enabled_needs_env_and_tracer(self):
        """The environment is required and the tracer is the sink's
        own, so an enabled sink always has both."""
        with pytest.raises(TypeError):
            Observability(enabled=True)
        obs, _ = make_obs()
        assert isinstance(obs.tracer, EngineTracer)
        assert obs.tracer is not Observability(Environment()).tracer

    def test_disabled_span_is_shared_noop(self):
        obs = Observability(Environment())
        assert obs.span("work", x=1) is obs.span("other")
        with obs.span("work"):
            pass
        assert len(obs.registry) == 0

    def test_disabled_metrics_are_noops(self):
        """Timings and levels are inert when disabled; counters are the
        engine's state and always count."""
        obs = Observability(Environment())
        obs.family(Histogram, "h")[()].observe(1.0)
        obs.family(Histogram, "hs", "kind")["a"].observe(1.0)
        obs.family(Gauge, "gs", "kind")["a"].set(1.0)
        assert len(obs.registry) == 0
        obs.registry.counter("c").inc()
        assert obs.registry.snapshot()["counters"] == {"c": 1.0}

    def test_components_built_bare_count_apart(self):
        """Components handed two sinks count apart: nothing leaks from
        one into another."""
        env = Environment()
        first, second = (DeviceLockManager(env, Observability(env))
                         for _ in range(2))
        env.process(first.acquire("cam1", LockToken("r1")))
        env.run()
        assert first.obs.registry.totals() == {"lock.acquisitions": 1.0}
        assert len(second.obs.registry) == 0
