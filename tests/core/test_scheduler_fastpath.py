"""The scheduler fast path end to end: vectorize + incremental knobs.

``vectorize=True`` must be invisible in outcomes: the engine's full
event trace is byte-identical to the scalar engine, for every
algorithm. ``incremental=True`` may legitimately place warm batches
differently (the splice is an approximation, not an identity), so it is
pinned on outcomes — every request serviced, dirty signals flowing,
statistics keys appearing only when the knob is on.
"""

import pytest

from repro import EngineConfig
from repro.scheduling import IncrementalScheduler
from repro.scheduling.vector_cost import HAVE_NUMPY

from tests.core.test_fastpath import build_fast_lab, drive, submit_photo
from tests.obs.golden import diff_dumps, dump_engine

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY,
                                 reason="numpy not installed")


def run_batches(config, batches):
    """Drive one photo batch per list of target x's.

    Returns (engine, trace); ``engine.scalar_estimates`` counts the
    cost model's per-(request, device) ``estimate`` calls.
    """
    engine = build_fast_lab(config, n_cameras=4)
    engine.scalar_estimates = 0
    estimate = engine.cost_model.estimate

    def counted(*args, **kwargs):
        engine.scalar_estimates += 1
        return estimate(*args, **kwargs)

    engine.cost_model.estimate = counted
    candidates = ("cam1", "cam2", "cam3", "cam4")
    n = 0
    for round_index, xs in enumerate(batches):
        for x in xs:
            n += 1
            submit_photo(engine, candidates, request_id=f"r{n}", x=x)
        drive(engine, until=300.0 * (round_index + 1))
    trace = [(record.at, record.kind, dict(record.fields))
             for record in engine.dispatcher.tracer]
    return engine, trace


def run_rounds(config, rounds=3, per_round=6):
    """Recurring batches, every round's targets shifted: no reuse."""
    return run_batches(config, [
        [10.0 + 3.0 * j + 1.5 * round_index for j in range(per_round)]
        for round_index in range(rounds)])


class TestVectorizeKnob:
    def test_defaults_off(self):
        config = EngineConfig()
        assert config.vectorize is False and config.incremental is False

    @needs_numpy
    @pytest.mark.parametrize("scheduler",
                             ["SRFAE", "LERFA+SRFE", "LS", "RANDOM"])
    def test_trace_byte_identical_to_scalar(self, scheduler):
        _, scalar = run_rounds(EngineConfig(scheduler=scheduler))
        _, vector = run_rounds(EngineConfig(scheduler=scheduler,
                                            vectorize=True))
        assert vector == scalar

    @needs_numpy
    def test_dispatcher_scheduler_carries_the_flag(self):
        engine = build_fast_lab(EngineConfig(vectorize=True))
        assert engine.dispatcher.scheduler.vectorize is True


class TestIncrementalKnob:
    def test_every_request_serviced_and_warm_runs_happen(self):
        engine, _ = run_rounds(EngineConfig(incremental=True), rounds=4)
        assert engine.dispatcher.serviced_total == 24
        assert engine.dispatcher.failed_total == 0
        stats = engine.statistics()
        assert stats["incremental_batches"] == 4
        # Recurring batches after the first are warm (spliced or
        # re-placed against the previous placement), not full runs.
        assert stats["incremental_full_runs"] == 1
        assert stats["incremental_signaled_devices"] > 0

    def test_statistics_keys_only_when_on(self):
        engine, _ = run_rounds(EngineConfig())
        assert not any(key.startswith("incremental_")
                       for key in engine.statistics())

    def test_per_action_scheduler_is_incremental(self):
        engine, _ = run_rounds(EngineConfig(incremental=True), rounds=1)
        state = engine.dispatcher._incremental["photo"]
        assert isinstance(state.scheduler, IncrementalScheduler)
        assert state.cache.inner is state.adapter
        assert state.scheduler.inner is engine.dispatcher.scheduler

    def test_status_cache_invalidations_feed_the_dirty_set(self):
        engine, _ = run_rounds(EngineConfig(incremental=True,
                                            status_cache=True), rounds=2)
        stats = engine.statistics()
        # Executions invalidate the status cache, whose listener marks
        # the device dirty (on top of the dispatcher's own marking).
        assert stats["status_cache_invalidations"] > 0
        assert stats["incremental_signaled_devices"] > 0
        assert engine.dispatcher.serviced_total == 12

    @needs_numpy
    def test_composes_with_vectorize(self):
        engine, _ = run_rounds(EngineConfig(incremental=True,
                                            vectorize=True), rounds=3)
        assert engine.dispatcher.serviced_total == 18
        assert engine.dispatcher.failed_total == 0

    @needs_numpy
    @pytest.mark.parametrize("extra", [{}, {"status_cache": True}],
                             ids=["probed", "status-cache"])
    def test_vectorize_keeps_the_kernel_on_every_warm_batch(self, extra):
        # New targets (zero reuse), the same targets again after every
        # head moved (all dirty), then a mix of old and new.
        first = [10.0 + 3.0 * j for j in range(6)]
        batches = [first, [x + 1.5 for x in first], first,
                   first[:3] + [40.0, 43.0]]
        scalar, scalar_trace = run_batches(
            EngineConfig(incremental=True, **extra), batches)
        vector, vector_trace = run_batches(
            EngineConfig(incremental=True, vectorize=True, **extra),
            batches)
        assert scalar.scalar_estimates > 0
        assert vector.scalar_estimates == 0
        assert vector_trace == scalar_trace

        def dump(engine):
            dumped = dump_engine(engine)
            # The shared oracle's counters count scalar estimates: the
            # one thing the two paths are meant to differ in.
            for key in ("incremental_cache_hits", "incremental_cache_misses"):
                dumped["statistics"].pop(key)
            return dumped

        assert not diff_dumps(dump(scalar), dump(vector))
        assert scalar.statistics()["incremental_cache_misses"] > 0
        assert vector.statistics()["incremental_cache_misses"] == 0
        assert vector.statistics()["incremental_full_runs"] == 1

    def test_reports_carry_per_batch_cache_counters(self):
        engine, _ = run_rounds(EngineConfig(incremental=True), rounds=4)
        reports = engine.dispatcher.reports
        stats = engine.statistics()
        # Summing the reports gives the lifetime totals — not, as when
        # each report repeated the running totals, a quadratic figure.
        assert sum(r.cache_stats["misses"] for r in reports) == \
            stats["incremental_cache_misses"]
        assert sum(r.cache_stats["hits"] for r in reports) == \
            stats["incremental_cache_hits"]
        assert all(r.cache_stats["misses"] > 0 for r in reports)
        # And the memo holds the last batch only.
        cache = engine.dispatcher._incremental["photo"].cache
        assert cache.entries <= reports[-1].cache_stats["misses"]

    def test_outcomes_match_the_default_path(self):
        plain, _ = run_rounds(EngineConfig(), rounds=3)
        warm, _ = run_rounds(EngineConfig(incremental=True), rounds=3)
        plain_reports = [(r.action_name, r.batch_size, r.serviced,
                          r.failed) for r in plain.dispatcher.reports]
        warm_reports = [(r.action_name, r.batch_size, r.serviced,
                         r.failed) for r in warm.dispatcher.reports]
        assert warm_reports == plain_reports
