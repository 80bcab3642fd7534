"""Worker fleet execution: identity, failure handling, teardown.

The load-bearing property is byte-identity: a worker fleet's
normalized per-shard dumps must equal the in-process fleet's, across backends, shard counts, observability and
overload control — pinned here with a hypothesis sweep on the thread
backend (cheap) and a single process-backend spot check (spawn costs
~1s per worker). The rest is the unhappy path: worker death must
surface as :class:`ShardingError` naming the shard instead of hanging
the barrier, and teardown must never leak processes or threads.
"""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.actions.request import REASON_CAPACITY
from repro.core.config import EngineConfig
from repro.errors import AortaError, ParseError, ShardingError, \
    SimulationError
from repro.shard import DeviceSpec, ShardedEngine
from tests.obs.golden import diff_dumps
from tests.shard.scenarios import (
    RoundTap,
    coupled_storm_scenario,
    region_fleet_scenario,
)

BACKENDS = ("thread", "process")


def dumps_of(n_regions: int, *, shards=None, parallel=False,
             backend="thread", **kwargs):
    fleet = region_fleet_scenario(
        n_regions, shards=shards, parallel=parallel,
        parallel_backend=backend, **kwargs)
    try:
        return fleet.shard_dumps(), fleet.statistics(), fleet.query_report()
    finally:
        fleet.close()


def assert_identical(serial, parallel):
    for index, (expected, actual) in enumerate(zip(serial, parallel)):
        differences = diff_dumps(expected, actual)
        assert not differences, (
            f"shard {index} parallel dump diverges from serial:\n  "
            + "\n  ".join(differences))


# ----------------------------------------------------------------------
# Byte-identity with serial lockstep
# ----------------------------------------------------------------------
@settings(max_examples=6, deadline=None)
@given(
    n_regions=st.integers(min_value=2, max_value=4),
    observability=st.booleans(),
    overload=st.booleans(),
)
def test_thread_parallel_is_byte_identical_to_serial(
        n_regions, observability, overload):
    serial_dumps, serial_stats, serial_queries = dumps_of(
        n_regions, observability=observability, overload=overload)
    parallel_dumps, parallel_stats, parallel_queries = dumps_of(
        n_regions, parallel=True, backend="thread",
        observability=observability, overload=overload)
    assert_identical(serial_dumps, parallel_dumps)
    assert parallel_stats == serial_stats
    assert parallel_queries == serial_queries


def test_process_parallel_is_byte_identical_to_serial():
    serial_dumps, serial_stats, _ = dumps_of(2, observability=True)
    parallel_dumps, parallel_stats, _ = dumps_of(
        2, parallel=True, backend="process", observability=True)
    assert_identical(serial_dumps, parallel_dumps)
    assert parallel_stats == serial_stats


def test_parallel_runs_are_deterministic_across_repeats():
    first = dumps_of(3, parallel=True, backend="thread")[0]
    second = dumps_of(3, parallel=True, backend="thread")[0]
    assert_identical(first, second)


def storm_outcome(**transport):
    fleet = coupled_storm_scenario(**transport)
    try:
        return (json.dumps(fleet.shard_dumps(), sort_keys=True),
                fleet.statistics(), fleet.query_report(),
                fleet.shard_statistics())
    finally:
        fleet.close()


def test_coupled_fleet_is_identical_on_every_transport_when_capacity_binds():
    # Shards admit mid-round against ledgers synced at the barrier, so
    # where a shard is hosted and how the OS schedules it cannot show.
    reference = storm_outcome()
    for stats in reference[3]:
        assert stats["overload_rejected_by_reason"][REASON_CAPACITY] > 0
    for backend in ("thread", "thread", "process", "process"):
        assert storm_outcome(parallel=True,
                             parallel_backend=backend) == reference


def test_fewer_shards_than_regions_stays_identical():
    serial = dumps_of(4, shards=2)[0]
    parallel = dumps_of(4, shards=2, parallel=True, backend="thread")[0]
    assert_identical(serial, parallel)


# ----------------------------------------------------------------------
# Facade behaviour in parallel mode
# ----------------------------------------------------------------------
def test_parallel_on_one_shard_is_forced_serial():
    # One shard has nothing to parallelize; the pass-through path (and
    # its byte-identity with a plain engine) must win.
    fleet = ShardedEngine(
        config=EngineConfig(shards=1, parallel=True), seed=0)
    assert not fleet.parallel
    assert len(fleet.shards) == 1
    assert fleet.env is fleet.shards[0].env
    fleet.close()  # no-op on a serial fleet


def test_parallel_fleet_refuses_per_shard_object_access():
    fleet = region_fleet_scenario(2, run_until=1.0, parallel=True,
                                  parallel_backend="thread")
    try:
        with pytest.raises(ShardingError, match="worker"):
            fleet.shard(0)
        with pytest.raises(ShardingError, match="worker"):
            fleet.device("cam00a")
        with pytest.raises(ShardingError, match="per-shard"):
            fleet.env
    finally:
        fleet.close()


def test_parallel_fleet_rehydrates_framework_errors():
    fleet = region_fleet_scenario(2, run_until=1.0, parallel=True,
                                  parallel_backend="thread")
    try:
        with pytest.raises(ParseError):
            fleet.execute("CREATE AQ broken AS SELECT")
    finally:
        fleet.close()


def test_unpicklable_factory_names_device_spec():
    config = EngineConfig(shards=2, parallel=True,
                          parallel_backend="thread")
    fleet = ShardedEngine(config=config, seed=0)
    try:
        with pytest.raises(ShardingError, match="DeviceSpec"):
            fleet.add_device("cam1", lambda env: None)
    finally:
        fleet.close()


@pytest.mark.parametrize("transport", [
    {}, {"parallel": True, "parallel_backend": "thread"},
], ids=["in-process", "thread"])
def test_engine_runs_counts_completed_runs_only(transport):
    # One rule for every transport, the plain engine's: a run() that
    # raises still closes its engine.run span but is not counted. A
    # run into the past is the failure here: the fleet refuses it after
    # every shard opened its span.
    fleet = region_fleet_scenario(2, run_until=0.5, observability=True,
                                  **transport)
    try:
        with pytest.raises(SimulationError, match="already at"):
            fleet.run(until=0.25)
        assert fleet.metrics()["counters"]["engine.runs"] == 2.0
        for dump in fleet.shard_dumps():
            assert dump["metrics"]["counters"]["engine.runs"] == 1.0
            run_spans = [record for record in dump["trace"]
                         if record["kind"] == "span"
                         and record["fields"]["name"] == "engine.run"]
            assert len(run_spans) == 2
    finally:
        fleet.close()


def test_transport_knobs_live_on_the_config_only():
    with pytest.raises(TypeError):
        ShardedEngine(config=EngineConfig(shards=2), parallel=True)
    with pytest.raises(TypeError):
        ShardedEngine(config=EngineConfig(shards=2),
                      parallel_backend="thread")


def test_round_breakdown_accounts_every_shard():
    fleet = region_fleet_scenario(3, parallel=True,
                                  parallel_backend="thread")
    try:
        breakdown = fleet.round_breakdown()
        assert breakdown["rounds"] > 0
        assert len(breakdown["per_shard"]) == 3
        for entry in breakdown["per_shard"]:
            assert entry["busy_s"] >= 0.0
            assert entry["barrier_wait_s"] >= 0.0
        snapshot = fleet.shard_labeled_metrics()
        assert any("shard.round." in key
                   for key in snapshot.get("counters", {}))
    finally:
        fleet.close()
    # A serial fleet has no barriers to account for.
    serial = region_fleet_scenario(2, run_until=1.0)
    assert serial.round_breakdown() is None


@pytest.mark.parametrize("backend", BACKENDS)
def test_ledger_free_worker_fleet_counts_one_round_per_run(backend):
    # Overload off: the shards share no ledger, so every run() is one
    # round however far it advances the clocks.
    fleet = region_fleet_scenario(2, parallel=True,
                                  parallel_backend=backend)
    try:
        assert fleet.round_breakdown()["rounds"] == 1
        fleet.run(until=50.0)
        fleet.run(until=75.5)
        assert fleet.round_breakdown()["rounds"] == 3
        assert fleet.metrics()["counters"]["shard.round.count"] == 3.0
    finally:
        fleet.close()


# ----------------------------------------------------------------------
# Worker death and teardown
# ----------------------------------------------------------------------
def test_worker_crash_raises_naming_the_shard():
    fleet = region_fleet_scenario(2, run_until=1.0, parallel=True,
                                  parallel_backend="process")
    workers = fleet.handles
    try:
        workers[1]._worker.kill()
        workers[1]._worker.join(timeout=10.0)
        with pytest.raises(ShardingError, match="shard 1"):
            fleet.run(until=40.0)
        # The failed fleet reaped every worker, not just the dead one.
        assert all(worker.dead for worker in workers)
        assert not any(worker.alive for worker in workers)
    finally:
        fleet.close()


def test_worker_killed_inside_the_one_long_round_fails_closed():
    # One round per run() widens the window a worker can die in, and
    # the coordinator notices only once the lower-indexed peers have
    # finished their round. It must still raise and reap, not hang.
    fleet = region_fleet_scenario(2, run_until=1.0, parallel=True,
                                  parallel_backend="process")
    workers = list(fleet.handles)
    submitted = threading.Event()
    # Worker 1 is the last peer to be started: once its round is down
    # the pipe, the whole fleet is mid-round.
    fleet.handles[1] = RoundTap(workers[1], on_begin=submitted.set)

    def kill_mid_round():
        assert submitted.wait(timeout=30.0)
        workers[1]._worker.kill()

    killer = threading.Thread(target=kill_mid_round, daemon=True)
    killer.start()
    try:
        with pytest.raises(ShardingError,
                           match="shard 1 .* died during 'run_round'"):
            fleet.run(until=5000.0)
        killer.join(timeout=30.0)
        assert not killer.is_alive()
        assert all(worker.dead for worker in workers)
        for worker in workers:
            worker._worker.join(timeout=10.0)
        assert not any(worker.alive for worker in workers)
    finally:
        fleet.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_context_manager_exit_leaves_no_workers(backend):
    threads_before = threading.active_count()
    with region_fleet_scenario(2, run_until=2.0, parallel=True,
                               parallel_backend=backend) as fleet:
        assert fleet.parallel
        workers = fleet.handles
        assert all(worker.alive for worker in workers)
    assert not any(worker.alive for worker in workers)
    if backend == "thread":
        # The worker threads are all joined.
        assert threading.active_count() <= threads_before


@pytest.mark.parametrize("backend", BACKENDS)
def test_coupled_fleet_exit_leaves_no_workers_or_threads(backend):
    threads_before = threading.active_count()
    with coupled_storm_scenario(parallel=True,
                                parallel_backend=backend) as fleet:
        assert fleet.ledger is not None
        workers = fleet.handles
        assert all(worker.alive for worker in workers)
        # A coupled fleet starts no thread of its own in the
        # coordinator: only thread workers add any.
        assert threading.active_count() == threads_before + (
            len(workers) if backend == "thread" else 0)
    assert not any(worker.alive for worker in workers)
    assert threading.active_count() == threads_before


def test_close_is_idempotent():
    fleet = region_fleet_scenario(2, run_until=1.0, parallel=True,
                                  parallel_backend="thread")
    fleet.close()
    fleet.close()
    with pytest.raises(ShardingError, match="died"):
        fleet.statistics()


# ----------------------------------------------------------------------
# DeviceSpec
# ----------------------------------------------------------------------
def test_device_spec_round_trips_through_pickle():
    import pickle

    from repro import PanTiltZoomCamera, Point
    spec = DeviceSpec(PanTiltZoomCamera, "cam9", Point(1, 2),
                      facing=90.0)
    clone = pickle.loads(pickle.dumps(spec))
    assert clone.factory is PanTiltZoomCamera
    assert clone.args == spec.args and clone.kwargs == spec.kwargs
    assert "PanTiltZoomCamera" in repr(clone)


def test_device_spec_builds_on_the_serial_path_too():
    from repro import PanTiltZoomCamera, Point
    fleet = ShardedEngine(config=EngineConfig(shards=1), seed=0)
    device = fleet.add_device("cam1", DeviceSpec(
        PanTiltZoomCamera, "cam1", Point(0, 0)))
    assert device is not None and device.device_id == "cam1"


def test_unknown_parallel_backend_is_refused():
    with pytest.raises(AortaError, match="parallel_backend"):
        EngineConfig(parallel_backend="greenlet")
