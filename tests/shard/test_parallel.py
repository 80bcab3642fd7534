"""Worker fleet execution: identity, failure handling, teardown.

The load-bearing property is byte-identity: a worker fleet's
normalized per-shard dumps must equal the in-process fleet's, across
shard counts, observability and overload control — pinned here with a
hypothesis sweep on the thread double of :mod:`tests.shard.thread_worker`
(cheap) and a single process spot check, on forked workers and on
spawned ones.
The rest is the unhappy path: worker death must
surface as :class:`ShardingError` naming the shard instead of hanging
the barrier, and teardown must never leak processes or threads.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.actions.request import REASON_CAPACITY
from repro.core.config import EngineConfig
from repro.errors import AortaError, ParseError, ShardingError, \
    SimulationError
from repro.shard import DeviceSpec, ShardedEngine
from repro.shard.parallel import SHUTDOWN_TIMEOUT
from tests.obs.golden import diff_dumps
from tests.shard.scenarios import (
    RoundTap,
    coupled_storm_scenario,
    region_fleet_scenario,
)
from tests.shard.thread_worker import thread_workers, workers_on

BACKENDS = ("thread", "process")


def dumps_of(n_regions: int, *, shards=None, parallel=False,
             backend="thread", **kwargs):
    with workers_on(backend):
        fleet = region_fleet_scenario(
            n_regions, shards=shards, parallel=parallel, **kwargs)
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


def test_spawned_workers_are_byte_identical_to_serial(monkeypatch):
    # Where fork is missing, workers start by spawn: a fresh
    # interpreter that imports everything itself must build the same
    # shards as a forked copy of the coordinator.
    monkeypatch.setattr("repro.shard.parallel.START_METHOD", "spawn")
    serial_dumps, serial_stats, _ = dumps_of(2, observability=True)
    parallel_dumps, parallel_stats, _ = dumps_of(
        2, parallel=True, backend="process", observability=True)
    assert_identical(serial_dumps, parallel_dumps)
    assert parallel_stats == serial_stats


def test_parallel_runs_are_deterministic_across_repeats():
    first = dumps_of(3, parallel=True, backend="thread")[0]
    second = dumps_of(3, parallel=True, backend="thread")[0]
    assert_identical(first, second)


def storm_outcome(backend=None):
    with workers_on(backend):
        fleet = coupled_storm_scenario(parallel=backend is not None)
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
        assert storm_outcome(backend) == reference


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
    with thread_workers():
        fleet = region_fleet_scenario(2, run_until=1.0, parallel=True)
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
    with thread_workers():
        fleet = region_fleet_scenario(2, run_until=1.0, parallel=True)
    try:
        with pytest.raises(ParseError):
            fleet.execute("CREATE AQ broken AS SELECT")
    finally:
        fleet.close()


def test_unpicklable_factory_names_device_spec():
    with thread_workers():
        fleet = ShardedEngine(
            config=EngineConfig(shards=2, parallel=True), seed=0)
    try:
        with pytest.raises(ShardingError, match="DeviceSpec"):
            fleet.add_device("cam1", lambda env: None)
    finally:
        fleet.close()


@pytest.mark.parametrize("parallel", [False, True],
                         ids=["in-process", "thread"])
def test_engine_runs_counts_completed_runs_only(parallel):
    # One rule for every transport, the plain engine's: a run() that
    # raises still closes its engine.run span but is not counted. A
    # run into the past is the failure here: the fleet refuses it after
    # every shard opened its span.
    with thread_workers():
        fleet = region_fleet_scenario(2, run_until=0.5,
                                      observability=True, parallel=parallel)
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
    with thread_workers():
        fleet = region_fleet_scenario(3, parallel=True)
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
    with workers_on(backend):
        fleet = region_fleet_scenario(2, parallel=True)
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
    fleet = region_fleet_scenario(2, run_until=1.0, parallel=True)
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
    fleet = region_fleet_scenario(2, run_until=1.0, parallel=True)
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


def test_a_worker_exits_once_the_coordinator_closes_its_end():
    # Worker 1 is forked after worker 0's pipe exists, so it starts
    # with a copy of the coordinator's end of that pipe; it must have
    # closed it, or worker 0 never sees EOF.
    fleet = region_fleet_scenario(2, run_until=1.0, parallel=True)
    workers = fleet.handles
    try:
        workers[0]._conn.close()
        workers[0]._worker.join(timeout=SHUTDOWN_TIMEOUT)
        assert not workers[0].alive
        assert workers[1].alive
        assert workers[1].call("now") == 1.0
    finally:
        fleet.close()


KILLED_COORDINATOR = """\
import os, signal, sys
sys.path[:0] = [{src!r}, {root!r}]
from tests.shard.scenarios import region_fleet_scenario

if __name__ == "__main__":
    fleet = region_fleet_scenario(2, run_until=1.0, parallel=True)
    with open(sys.argv[1], "w") as handle:
        handle.write(" ".join(str(worker._worker.pid)
                              for worker in fleet.handles))
    os.kill(os.getpid(), signal.SIGKILL)
"""


def _running(pid):
    """Whether ``pid`` is a live process: an exited orphan may stay a
    zombie until its new parent reaps it."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"),
                    reason="reads process states from /proc")
def test_workers_exit_when_the_coordinator_is_killed(tmp_path):
    # Nothing closes the pipes on SIGKILL: the workers must see EOF
    # because no process but the coordinator holds its ends.
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    script = tmp_path / "coordinator.py"
    script.write_text(KILLED_COORDINATOR.format(
        src=os.path.join(root, "src"), root=root))
    pid_file = tmp_path / "pids"
    # Output goes to a file, not a pipe: a surviving worker would hold
    # the pipe open and hang the wait.
    with open(tmp_path / "stderr", "w") as stderr:
        done = subprocess.run(
            [sys.executable, str(script), str(pid_file)],
            stdout=subprocess.DEVNULL, stderr=stderr, timeout=120)
    assert done.returncode == -signal.SIGKILL, \
        (tmp_path / "stderr").read_text()
    pids = [int(pid) for pid in pid_file.read_text().split()]
    assert len(pids) == 2
    try:
        deadline = time.monotonic() + 5.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if _running(pid)]
    finally:
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.parametrize("backend", BACKENDS)
def test_context_manager_exit_leaves_no_workers(backend):
    threads_before = threading.active_count()
    with workers_on(backend), region_fleet_scenario(
            2, run_until=2.0, parallel=True) as fleet:
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
    with workers_on(backend), coupled_storm_scenario(
            parallel=True) as fleet:
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
    with thread_workers():
        fleet = region_fleet_scenario(2, run_until=1.0, parallel=True)
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
    # A worker is a process; the thread transport is a test
    # double (tests/shard/thread_worker.py), not a config value.
    for backend in ("greenlet", "thread"):
        with pytest.raises(AortaError, match="parallel_backend"):
            EngineConfig(parallel_backend=backend)
