"""The cost kernel is picked per batch, and the pick is invisible.

The dispatcher's scheduler vectorizes whenever numpy is installed; per
batch, ``_ActionCostAdapter.make_column_kernel`` hands it the numpy
column kernel from ``KERNEL_MIN_REQUESTS`` requests up and declines
below, which leaves the scalar walk. Which of the two ran is pinned by
call counts on the engine cost model; that it cannot be told from the
outcome, by byte-equal dumps against an engine whose scheduler was
built with ``vectorize=False``.
"""

import pytest

from repro import EngineConfig
from repro.core.dispatcher import SCHEDULER_FACTORIES
from repro.scheduling.vector_cost import HAVE_NUMPY

from tests.core.test_fastpath import build_fast_lab, drive, submit_photo
from tests.obs.golden import diff_dumps, dump_engine

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


def run_batches(config, batches, scalar=False):
    """Drive one photo batch per list of target x's.

    Returns (engine, trace); ``engine.cost_calls`` counts the cost
    model's scalar ``estimate`` and kernel ``estimate_block`` calls.
    ``scalar`` swaps in the configured algorithm built without the
    kernel.
    """
    engine = build_fast_lab(config, n_cameras=4)
    if scalar:
        engine.dispatcher.scheduler = SCHEDULER_FACTORIES[config.scheduler](
            config.scheduler_seed, vectorize=False)
    engine.cost_calls = {"estimate": 0, "estimate_block": 0}

    def counted(name):
        original = getattr(engine.cost_model, name)

        def call(*args, **kwargs):
            engine.cost_calls[name] += 1
            return original(*args, **kwargs)
        return call

    for name in engine.cost_calls:
        setattr(engine.cost_model, name, counted(name))
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


def run_rounds(config, rounds=3, per_round=6, scalar=False):
    """Recurring batches, every round's targets shifted."""
    return run_batches(config, [
        [10.0 + 3.0 * j + 1.5 * round_index for j in range(per_round)]
        for round_index in range(rounds)], scalar=scalar)


class TestKernelSelection:
    def test_three_requests_take_the_scalar_walk(self):
        engine, _ = run_rounds(EngineConfig(), rounds=2, per_round=3)
        assert engine.cost_calls["estimate_block"] == 0
        assert engine.cost_calls["estimate"] > 0
        assert engine.statistics()["requests_serviced"] == 6

    def test_four_requests_take_the_kernel(self):
        engine, _ = run_rounds(EngineConfig(), rounds=2, per_round=4)
        assert engine.cost_calls["estimate"] == 0
        assert engine.cost_calls["estimate_block"] > 0
        assert engine.statistics()["requests_serviced"] == 8

    def test_dumps_byte_equal_to_a_scalar_scheduler(self):
        batches = [[10.0 + 3.0 * j + 1.5 * size for j in range(size)]
                   for size in range(1, 9)]
        picked, picked_trace = run_batches(EngineConfig(), batches)
        scalar, scalar_trace = run_batches(EngineConfig(), batches,
                                           scalar=True)
        assert picked.cost_calls["estimate_block"] > 0
        assert scalar.cost_calls["estimate_block"] == 0
        assert picked_trace == scalar_trace
        assert not diff_dumps(dump_engine(scalar), dump_engine(picked))
        # Every scalar estimate of the picked run was made by the three
        # batches under the kernel's floor; the five above it made none.
        below_floor, _ = run_batches(EngineConfig(), batches[:3])
        assert below_floor.cost_calls["estimate_block"] == 0
        assert (picked.cost_calls["estimate"]
                == below_floor.cost_calls["estimate"] > 0)


class TestVectorizeKnob:
    """``Scheduler(vectorize=)``, as the dispatcher sets it."""

    @pytest.mark.parametrize("scheduler",
                             ["SRFAE", "LERFA+SRFE", "LS", "RANDOM"])
    def test_trace_byte_identical_to_scalar(self, scheduler):
        config = EngineConfig(scheduler=scheduler)
        _, scalar = run_rounds(config, scalar=True)
        _, vector = run_rounds(config)
        assert vector == scalar

    def test_dispatcher_scheduler_carries_the_flag(self):
        engine = build_fast_lab(EngineConfig())
        assert engine.dispatcher.scheduler.vectorize is True
