"""The dispatcher's batch pipeline: one record, named steps, one exit.

Two families. The conservation property drives ``dispatch_batch`` on a
real lab engine over drawn batches, dead-device subsets and feature
combinations, and checks what the three exits (``shed_request``,
``_fail``, ``_succeed``) guarantee by construction: every request ends
exactly once, logged, counted and traced together. The step tests hand
``_partition`` and ``_service`` a hand-built ``_Batch`` on a bare
``Dispatcher`` — no ``AortaEngine``, stand-in action and devices.
"""

from types import SimpleNamespace

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    EngineConfig,
    Environment,
    HealthPolicy,
    Point,
    RetryPolicy,
    SensorStimulus,
)
from repro.actions.request import ActionRequest, RequestState
from repro.core.dispatcher import MAX_DISPATCHES, Dispatcher, _Batch
from repro.errors import DeviceDownError
from repro.obs import Observability
from repro.overload import OverloadPolicy
from repro.sync.locks import DeviceLockManager
from tests.core.conftest import FIGURE_1, build_lab

CAMERAS = ("cam1", "cam2")
TERMINAL_KIND = {
    RequestState.SERVICED: "request_serviced",
    RequestState.FAILED: "request_failed",
    RequestState.SHED: "request_shed",
}


# ----------------------------------------------------------------------
# Bugfix: the one terminal transition that left no trace record
# ----------------------------------------------------------------------
def test_unschedulable_request_is_traced_like_every_other_failure(engine):
    engine.comm.registry.get("cam1").go_offline()
    request = ActionRequest(
        action_name="photo",
        arguments={"target": Point(4, 3), "directory": "photos"},
        candidates=("cam1",))
    engine.env.process(engine.dispatcher.dispatch_batch(
        engine.actions.get("photo"), [request]))
    engine.env.run()

    assert engine.statistics()["requests_failed"] == 1
    [record] = engine.tracer.of_kind("request_failed")
    assert record["request"] == request.request_id
    assert record["device"] is None
    assert record["reason"] == "no available candidate"
    [batch] = engine.tracer.of_kind("batch_dispatched")
    assert batch["failed"] == 1


# ----------------------------------------------------------------------
# Bugfix: DROP AQ took the query's waiting requests with it
# ----------------------------------------------------------------------
def test_dropping_a_query_fails_the_requests_it_left_waiting():
    engine = build_lab()
    engine.execute(FIGURE_1)
    engine.comm.registry.get("mote1").inject(SensorStimulus(
        "accel_x", start=0.0, duration=5.0, magnitude=900.0))
    engine.start()
    while not engine.dispatcher.pending_requests:
        engine.env.step()
    engine.execute("DROP AQ snapshot")     # inside the batch window
    engine.run(until=20.0)

    assert engine.dispatcher.pending_requests == 0
    [request] = engine.completed_requests
    assert request.state is RequestState.FAILED
    assert request.failure_reason == "query dropped"
    assert engine.statistics()["requests_failed"] == 1
    assert [record.kind for record in engine.tracer
            if record.kind.startswith("request_")] == [
        "request_emitted", "request_failed"]


@settings(max_examples=40, deadline=None)
@given(drop_at=st.floats(min_value=0.0, max_value=14.0),
       overload=st.booleans())
def test_a_query_dropped_mid_run_loses_no_request(drop_at, overload):
    """Emitted = serviced + failed + shed + rejected, nothing pending,
    whenever the DROP lands: before the event, inside the batch window,
    during service or after it."""
    engine = build_lab(config=EngineConfig(
        overload=overload,
        overload_policy=OverloadPolicy(queue_limit=2) if overload else None))
    engine.execute(FIGURE_1)
    engine.execute(FIGURE_1.replace("snapshot", "kept"))
    for index in (1, 2, 3):
        engine.comm.registry.get(f"mote{index}").inject(SensorStimulus(
            "accel_x", start=3.0 * index, duration=4.0, magnitude=900.0))
    engine.start()
    engine.run(until=drop_at)
    engine.execute("DROP AQ snapshot")
    engine.run(until=60.0)

    dispatcher = engine.dispatcher
    assert dispatcher.pending_requests == 0
    emitted = len(engine.tracer.of_kind("request_emitted"))
    rejected = len(engine.tracer.of_kind("request_rejected"))
    assert emitted == sum(exits(engine).values()) + rejected
    assert emitted - rejected == len(dispatcher.completed)
    assert not any(engine.locks.is_locked(camera) for camera in CAMERAS)


# ----------------------------------------------------------------------
# Conservation at the exit
# ----------------------------------------------------------------------
request_draws = st.lists(
    st.tuples(
        st.sets(st.sampled_from(CAMERAS), min_size=1),   # candidates
        st.sampled_from([None, -1.0, 0.5, 4.0, 60.0]),   # absolute deadline
        st.integers(min_value=1, max_value=3)),          # priority
    min_size=1, max_size=5)


@settings(max_examples=120, deadline=None)
@given(draws=request_draws,
       dead=st.sets(st.sampled_from(CAMERAS)),
       probing=st.booleans(), locking=st.booleans(),
       failover=st.booleans(),
       max_attempts=st.integers(min_value=1, max_value=2),
       overload=st.booleans(),
       queue_limit=st.sampled_from([None, 1]),
       health=st.booleans())
def test_every_request_ends_exactly_once(
        draws, dead, probing, locking, failover, max_attempts, overload,
        queue_limit, health):
    engine = build_lab(config=EngineConfig(
        probing=probing, locking=locking,
        retry=RetryPolicy(max_attempts=max_attempts, failover=failover),
        overload=overload,
        overload_policy=(OverloadPolicy(queue_limit=queue_limit)
                         if overload else None),
        health=HealthPolicy(failure_threshold=1) if health else None))
    for camera in dead:
        engine.comm.registry.get(camera).go_offline()
    requests = [
        ActionRequest(
            action_name="photo",
            arguments={"target": Point(3.0 + 3 * index, 3.0),
                       "directory": "photos"},
            candidates=tuple(sorted(candidates)), priority=priority,
            deadline=deadline)
        for index, (candidates, deadline, priority) in enumerate(draws)]
    dispatcher = engine.dispatcher
    action = engine.actions.get("photo")
    reports = []

    def one_batch(env):
        reports.append((yield from dispatcher.dispatch_batch(
            action, list(requests))))

    engine.env.process(one_batch(engine.env))
    engine.env.run()
    check_conservation(engine, requests)
    [report] = reports
    if queue_limit is None or not overload:
        # (A bounded queue may evict — shed — a request this batch
        # already counted as failed over.)
        assert (report.serviced + report.failed + report.unschedulable
                + report.failed_over + exits(engine)[RequestState.SHED]
                == len(requests))

    def drain(env):
        while dispatcher.pending_requests:
            yield from dispatcher.dispatch_pending()

    engine.env.process(drain(engine.env))
    engine.env.run()
    check_conservation(engine, requests)
    assert dispatcher.pending_requests == 0
    assert len(dispatcher.completed) == len(requests)


def exits(engine):
    """Requests that left through each exit, from ``statistics()``."""
    stats = engine.statistics()
    return {RequestState.SERVICED: stats["requests_serviced"],
            RequestState.FAILED: stats["requests_failed"],
            RequestState.SHED: stats.get("requests_shed", 0)}


def check_conservation(engine, requests):
    dispatcher = engine.dispatcher
    pending = [request for operator in dispatcher._operators.values()
               for request in operator.pending_snapshot()]
    assert sum(exits(engine).values()) == len(dispatcher.completed)
    for request in requests:
        ended = sum(1 for done in dispatcher.completed if done is request)
        queued = sum(1 for waiting in pending if waiting is request)
        assert ended + queued == 1, (request, ended, queued)
        if queued:
            assert request.state is RequestState.PENDING
        for state, kind in TERMINAL_KIND.items():
            records = [record for record in engine.tracer.of_kind(kind)
                       if record["request"] == request.request_id]
            expected = 1 if ended and request.state is state else 0
            assert len(records) == expected, (request, kind, records)
    by_state = {state: sum(1 for done in dispatcher.completed
                           if done.state is state)
                for state in TERMINAL_KIND}
    assert by_state == exits(engine)
    assert not any(engine.locks.is_locked(camera) for camera in CAMERAS)


# ----------------------------------------------------------------------
# Steps on a hand-built batch record, no engine
# ----------------------------------------------------------------------
class StubAction:
    """Stands in for an ActionDefinition: one second per execution,
    unreachable devices refuse (a transient device error)."""

    name = "snap"

    def __init__(self, env):
        self.env = env

    def execute(self, device, arguments):
        yield self.env.timeout(1.0)
        if not device.reachable:
            raise DeviceDownError(f"{device.device_id} is down")
        return f"{device.device_id}:{arguments['n']}"


def bare_dispatcher(**config):
    env = Environment()
    obs = Observability(env)
    dispatcher = Dispatcher(env, comm=None, cost_model=None,
                            locks=DeviceLockManager(env, obs),
                            config=EngineConfig(**config), obs=obs)
    return env, dispatcher, StubAction(env)


def counted(dispatcher, name):
    """A count in a bare dispatcher's registry (shared with its locks)."""
    return dispatcher.obs.registry.totals().get(name, 0)


def stub_device(device_id, reachable=True):
    return SimpleNamespace(device_id=device_id, reachable=reachable)


def snap(n, *candidates):
    return ActionRequest(action_name="snap", arguments={"n": n},
                         candidates=candidates)


def test_partition_splits_schedulable_from_failed():
    env, dispatcher, action = bare_dispatcher()
    reachable, both, stranded = snap(1, "d1"), snap(2, "d1", "d2"), \
        snap(3, "d2")
    batch = _Batch(action, [reachable, both, stranded], env.now)
    batch.statuses = {"d1": {}}  # only d1 answered its probe

    dispatcher._partition(batch)

    assert [(entry.payload, entry.candidates)
            for entry in batch.schedulable] \
        == [(reachable, ("d1",)), (both, ("d1",))]
    # Without failover the request is narrowed to who answered.
    assert both.candidates == ("d1",)
    assert stranded.state is RequestState.FAILED
    assert dispatcher.completed == [stranded]
    assert counted(dispatcher, "dispatch.requests_failed") == 1
    assert (batch.report.unschedulable, batch.report.failed,
            batch.report.failed_over) == (1, 0, 0)
    assert all(request.dispatches == 1 for request in batch.requests)


def test_partition_with_failover_requeues_and_keeps_the_full_set():
    env, dispatcher, action = bare_dispatcher(
        retry=RetryPolicy(failover=True))
    both, stranded, spent = snap(1, "d1", "d2"), snap(2, "d2"), \
        snap(3, "d2")
    spent.dispatches = MAX_DISPATCHES - 1  # this batch is its last
    batch = _Batch(action, [both, stranded, spent], env.now)
    batch.statuses = {"d1": {}}

    dispatcher._partition(batch)

    [entry] = batch.schedulable
    assert (entry.payload, entry.candidates) == (both, ("d1",))
    # d2 is merely down this batch: it may service `both` after a
    # failover re-dispatch, so the request keeps it.
    assert both.candidates == ("d1", "d2")
    assert stranded.state is RequestState.PENDING
    assert dispatcher.operator_for(action).pending_snapshot() == [stranded]
    assert spent.state is RequestState.FAILED
    assert dispatcher.completed == [spent]
    assert (batch.report.unschedulable, batch.report.failed_over) == (1, 1)
    assert [record["request"] for record
            in dispatcher.obs.tracer.of_kind("request_failed_over")] \
        == [stranded.request_id]


def run_service(env, dispatcher, batch):
    env.process(dispatcher._service(batch))
    env.run()


def test_service_ends_each_request_when_it_completes():
    env, dispatcher, action = bare_dispatcher()
    first, second, other = snap(1, "d1"), snap(2, "d1"), snap(3, "d2")
    batch = _Batch(action, [first, second, other], env.now)
    batch.devices = {"d1": stub_device("d1"), "d2": stub_device("d2")}
    batch.queues = {"d1": [first, second], "d2": [other]}

    run_service(env, dispatcher, batch)

    # d1's queue is serial under its lock; d2 runs beside it. Requests
    # enter the completion log as they end, not when the batch does.
    assert [(request.completed_at, request.result)
            for request in dispatcher.completed] \
        == [(1.0, "d1:1"), (1.0, "d2:3"), (2.0, "d1:2")]
    assert counted(dispatcher, "dispatch.requests_serviced") == 3
    assert (batch.report.serviced, batch.report.failed,
            batch.report.attempts, batch.report.retries) == (3, 0, 3, 0)
    assert [record.at for record
            in dispatcher.obs.tracer.of_kind("request_serviced")] \
        == [1.0, 1.0, 2.0]
    assert counted(dispatcher.locks, "lock.acquisitions") == 3
    assert not dispatcher.locks.is_locked("d1")
    assert not dispatcher.locks.is_locked("d2")


def test_service_unlocked_fires_every_request_at_once():
    env, dispatcher, action = bare_dispatcher(locking=False)
    first, second = snap(1, "d1"), snap(2, "d1")
    batch = _Batch(action, [first, second], env.now)
    batch.devices = {"d1": stub_device("d1")}
    batch.queues = {"d1": [first, second]}

    run_service(env, dispatcher, batch)

    assert [request.completed_at for request in dispatcher.completed] \
        == [1.0, 1.0]
    assert batch.report.serviced == 2
    assert counted(dispatcher.locks, "lock.acquisitions") == 0


def test_service_drains_a_dead_devices_queue():
    env, dispatcher, action = bare_dispatcher(
        retry=RetryPolicy(failover=True))
    running, movable, stuck = snap(1, "d1", "d2"), snap(2, "d1", "d2"), \
        snap(3, "d1")
    for request in (running, movable, stuck):
        request.dispatches = 1
    batch = _Batch(action, [running, movable, stuck], env.now)
    batch.devices = {"d1": stub_device("d1", reachable=False)}
    batch.queues = {"d1": [running, movable, stuck]}

    run_service(env, dispatcher, batch)

    # The first request found out the hard way and failed over; the
    # rest never executed: one moves to d2, one has nowhere to go.
    assert (running.attempts, movable.attempts, stuck.attempts) == (1, 0, 0)
    assert dispatcher.operator_for(action).pending_snapshot() \
        == [running, movable]
    assert movable.candidates == ("d2",)
    assert dispatcher.completed == [stuck]
    [record] = dispatcher.obs.tracer.of_kind("request_failed")
    assert record["device"] == "d1"
    assert "failed while request was queued" in record["reason"]
    assert (batch.report.serviced, batch.report.failed,
            batch.report.failed_over, batch.report.attempts) == (0, 1, 2, 1)
    assert not dispatcher.locks.is_locked("d1")


# ----------------------------------------------------------------------
# The joins: a batch's device queues and sibling batches are fan-outs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", [1, 3])
def test_a_batch_service_costs_two_kernel_events_per_request(k):
    """One request per device queue costs its lock grant and its action's
    timer. The k queues are one fan-out, whose start and completion are
    the service's only other events: nothing is spawned per queue."""
    env, dispatcher, action = bare_dispatcher()
    requests = [snap(n, f"d{n}") for n in range(1, k + 1)]
    batch = _Batch(action, requests, env.now)
    batch.devices = {f"d{n}": stub_device(f"d{n}") for n in range(1, k + 1)}
    batch.queues = {f"d{n}": [request]
                    for n, request in enumerate(requests, 1)}

    run_service(env, dispatcher, batch)

    own = 1  # run_service's process: its start
    assert batch.report.serviced == k
    assert env.events_processed == 2 * k + 2 + own  # 9 for three queues


class BuggyAction(StubAction):
    """A StubAction whose request ``n == 0`` hits a bug after its
    second: an error the attempt loop does not handle."""

    def execute(self, device, arguments):
        yield self.env.timeout(1.0)
        if arguments["n"] == 0:
            raise RuntimeError("snap bug")
        return f"{device.device_id}:{arguments['n']}"


@pytest.mark.parametrize("victim_first", [True, False])
def test_an_unexpected_queue_error_surfaces_after_every_queue(victim_first):
    """A device queue's unexpected error is raised once the batch's other
    queues have ended; no device lock stays held."""
    env, dispatcher, _ = bare_dispatcher()
    action = BuggyAction(env)
    bug, served = snap(0, "d1"), [snap(1, "d2"), snap(2, "d2")]
    batch = _Batch(action, [bug, *served], env.now)
    batch.devices = {"d1": stub_device("d1"), "d2": stub_device("d2")}
    queues = [("d1", [bug]), ("d2", served)]
    batch.queues = dict(queues if victim_first else queues[::-1])

    with pytest.raises(RuntimeError, match="snap bug"):
        run_service(env, dispatcher, batch)

    # The bug struck at t=1; d2's second request ended at t=2.
    assert env.now == 2.0
    assert dispatcher.completed == served
    assert [request.completed_at for request in served] == [1.0, 2.0]
    assert not dispatcher.locks.is_locked("d1")
    assert not dispatcher.locks.is_locked("d2")


@pytest.mark.parametrize("beep_first", [True, False])
def test_an_unexpected_batch_error_surfaces_after_its_sibling(beep_first):
    """Two actions' batches drained by one ``dispatch_pending``: the beep
    batch's unexpected error leaves ``run()`` only once the slower photo
    batch has ended; no device lock stays held."""
    engine = build_lab(config=EngineConfig(probing=False))
    env, dispatcher = engine.env, engine.dispatcher
    raised_at = []

    def buggy_beep(**_params):
        yield env.timeout(0.1)
        raised_at.append(env.now)
        raise RuntimeError("beep bug")

    engine.comm.registry.get("mote1").op_beep = buggy_beep
    names = ["beep", "photo"] if beep_first else ["photo", "beep"]
    operators = {name: dispatcher.operator_for(engine.actions.get(name))
                 for name in names}
    photos = [ActionRequest(action_name="photo",
                            arguments={"target": target,
                                       "directory": "photos"},
                            candidates=("cam1",))
              for target in (Point(4, 3), Point(8, 3))]
    for photo in photos:
        operators["photo"].submit(photo)
    operators["beep"].submit(ActionRequest(
        action_name="beep", arguments={}, candidates=("mote1",)))
    reports = []

    def driver(env):
        reports.extend((yield from dispatcher.dispatch_pending()))

    env.process(driver(env))
    with pytest.raises(RuntimeError, match="beep bug"):
        env.run(until=60.0)

    assert reports == []
    assert [photo.state for photo in photos] == [RequestState.SERVICED] * 2
    [batch] = engine.tracer.of_kind("batch_dispatched")
    assert batch["action"] == "photo"
    assert raised_at[0] < env.now == batch.at \
        == max(photo.completed_at for photo in photos)
    assert not any(engine.locks.is_locked(device)
                   for device in ("cam1", "cam2", "mote1"))


# ----------------------------------------------------------------------
# A batch keeps a request's candidate tuple when every candidate answers
# ----------------------------------------------------------------------
def dispatch_photos(engine, *candidate_sets):
    """One photo request per candidate tuple, dispatched as one batch."""
    requests = [ActionRequest(
        action_name="photo",
        arguments={"target": Point(4 + n, 3), "directory": "photos"},
        candidates=candidates) for n, candidates in enumerate(candidate_sets)]
    engine.env.process(engine.dispatcher.dispatch_batch(
        engine.actions.get("photo"), requests))
    engine.env.run()
    return requests


def test_a_fully_answered_batch_keeps_each_requests_own_candidates(engine):
    shared = ("cam1", "cam2")
    equal = tuple(list(shared))  # equal to shared, another object
    requests = dispatch_photos(engine, shared, shared, equal)

    assert [request.state for request in requests] \
        == [RequestState.SERVICED] * 3
    assert [request.candidates for request in requests] == [shared] * 3
    assert requests[0].candidates is shared
    assert requests[1].candidates is shared
    assert requests[2].candidates is equal


def test_a_failed_probe_narrows_every_request_to_one_shared_tuple(engine):
    engine.comm.registry.get("cam2").go_offline()
    requests = dispatch_photos(engine, *[("cam1", "cam2")] * 3)

    first = requests[0].candidates
    assert first == ("cam1",)
    assert all(request.candidates is first for request in requests)
    assert [(request.state, request.assigned_device, request.completed_at)
            for request in requests] == SCHEDULE_WITH_CAM2_DOWN


#: (state, device, completion) per request, as before the dispatcher
#: shared candidate tuples: the probe's timeout on cam2, then cam1
#: serves the batch last request first.
SCHEDULE_WITH_CAM2_DOWN = [
    (RequestState.SERVICED, "cam1", 3.2268057974842055),
    (RequestState.SERVICED, "cam1", 2.728356592539406),
    (RequestState.SERVICED, "cam1", 2.2524015760041003),
]
