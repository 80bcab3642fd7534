"""The cost kernel is picked per batch, and the pick is invisible.

Per batch, ``build_kernel`` asks ``_ActionCostAdapter.make_column_kernel``
for the numpy cost kernel, which it hands over whatever the batch's
size and declines only for a device without a block resolver, which
leaves the scalar walk. Which of the two ran, and how often the kernel
fills its matrix, is pinned by call counts on the engine cost model;
that it cannot be told from the outcome, by byte-equal dumps against an
engine run with the one gate closed, as on a host without numpy.
"""

import pytest

import contextlib

from repro import EngineConfig
from repro.scheduling.vector_cost import HAVE_NUMPY

from tests.core.test_fastpath import build_fast_lab, drive, submit_photo
from tests.obs.golden import diff_dumps, dump_engine
from tests.scheduling.scalar_walk import scalar_walk

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


def run_batches(config, batches, scalar=False, n_cameras=4):
    """Drive one photo batch per list of target x's, every camera a
    candidate.

    Returns (engine, trace); ``engine.cost_calls`` counts the cost
    model's scalar ``estimate`` and kernel ``prepare_block`` /
    ``estimate_block`` calls. ``scalar`` runs the batches with the
    kernel gate closed.
    """
    engine = build_fast_lab(config, n_cameras=n_cameras)
    engine.cost_calls = {"estimate": 0, "prepare_block": 0,
                         "estimate_block": 0}

    def counted(name):
        original = getattr(engine.cost_model, name)

        def call(*args, **kwargs):
            engine.cost_calls[name] += 1
            return original(*args, **kwargs)
        return call

    for name in engine.cost_calls:
        setattr(engine.cost_model, name, counted(name))
    candidates = tuple(f"cam{i + 1}" for i in range(n_cameras))
    n = 0
    with scalar_walk() if scalar else contextlib.nullcontext():
        for round_index, xs in enumerate(batches):
            for x in xs:
                n += 1
                submit_photo(engine, candidates, request_id=f"r{n}", x=x)
            drive(engine, until=300.0 * (round_index + 1))
    trace = [(record.at, record.kind, dict(record.fields))
             for record in engine.dispatcher.obs.tracer]
    return engine, trace


def run_rounds(config, rounds=3, per_round=6, scalar=False):
    """Recurring batches, every round's targets shifted."""
    return run_batches(config, [
        [10.0 + 3.0 * j + 1.5 * round_index for j in range(per_round)]
        for round_index in range(rounds)], scalar=scalar)


class TestKernelSelection:
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
        # Every size from one request up takes the kernel: one prepare
        # per batch and not a single scalar estimate.
        assert picked.cost_calls["estimate"] == 0
        assert picked.cost_calls["prepare_block"] == len(batches)
        assert scalar.cost_calls["estimate_block"] == 0
        assert scalar.cost_calls["estimate"] > 0
        assert picked_trace == scalar_trace
        assert not diff_dumps(dump_engine(scalar), dump_engine(picked))


class TestMatrixFill:
    @pytest.mark.parametrize("n_cameras", [4, 16])
    def test_one_fill_per_batch_whatever_the_fleet(self, n_cameras):
        """SRFAE's Lines 1-3 cost one prepare and one estimate over the
        whole (cameras x requests) matrix, then one column re-key per
        assignment: the count does not grow with the camera count."""
        size = 6
        engine, _ = run_batches(
            EngineConfig(),
            [[10.0 + 3.0 * j for j in range(size)]], n_cameras=n_cameras)
        assert engine.statistics()["requests_serviced"] == size
        assert engine.cost_calls == {
            "estimate": 0, "prepare_block": 1, "estimate_block": 1 + size}


class TestVectorizeKnob:
    """The kernel against the scalar walk, on the engine's algorithm
    (``tests/scheduling/test_vector_cost.py`` covers the library's
    other four)."""

    @pytest.mark.parametrize("scheduler", ["SRFAE"])
    def test_trace_byte_identical_to_scalar(self, scheduler):
        config = EngineConfig()
        _, scalar = run_rounds(config, scalar=True)
        engine, vector = run_rounds(config)
        assert engine.dispatcher.scheduler.name == scheduler
        assert vector == scalar
