"""The comm layer end to end: pooling, per-action dispatch, status cache.

Pooled channels and per-action dispatch are how every engine talks to
devices; the status cache is the one opt-in policy on top. Two families
of guarantees are pinned here. First, correctness of each mechanism:
cache invalidation forces a re-probe after any execution, breaker
transitions and departures drop a device's pooled channel and cached
status, independent actions' batches overlap without changing outcomes,
and every connection the transport opens ends up closed or parked.
Second, the status cache's on switch: it changes comm traffic and adds
its own statistics, never which requests are serviced.
"""

from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    AortaEngine,
    EngineConfig,
    Environment,
    HealthPolicy,
    PanTiltZoomCamera,
    Point,
    RetryPolicy,
    SensorMote,
    SensorStimulus,
)
from repro.actions.request import ActionRequest
from repro.comm.status_cache import DEFAULT_STATUS_TTLS
from repro.devices.failures import FailureInjector, OutageSpec
from repro.devices.health import BreakerState

from tests.core.conftest import FIGURE_1, LOSSLESS
from tests.obs.golden import dump_engine
from tests.obs.scenarios import snapshot_scenario

FASTPATH_OFF = dict(status_cache=False)
FASTPATH_ON = dict(status_cache=True)


def camera_ttl(seconds):
    """The status cache's camera TTL (a module constant), set for one
    test so a cached status outlives the gap between its batches."""
    return patch.dict(DEFAULT_STATUS_TTLS, camera=seconds)


def build_fast_lab(config, n_cameras=3):
    """Cameras covering one quiet mote; workload driven by hand."""
    env = Environment()
    engine = AortaEngine(env, config=config, links=dict(LOSSLESS))
    for i in range(n_cameras):
        engine.add_device(PanTiltZoomCamera(
            env, f"cam{i + 1}", Point(20.0 * i, 0.0),
            facing=0.0, view_half_angle=170.0, view_range=1000.0))
    engine.add_device(SensorMote(env, "mote1", Point(5, 3),
                                 noise_amplitude=0.0))
    return engine


def submit_photo(engine, candidates, request_id=None, x=10.0):
    operator = engine.dispatcher.operator_for(engine.actions.get("photo"))
    operator.submit(ActionRequest(
        action_name="photo",
        arguments={"target": Point(x, 5.0), "directory": "photos"},
        created_at=engine.env.now,
        candidates=candidates,
        **({"request_id": request_id} if request_id else {})))
    return operator


def drive(engine, until):
    reports = []

    def driver(env):
        result = yield from engine.dispatcher.dispatch_pending()
        reports.extend(result)

    engine.env.process(driver(engine.env))
    engine.env.run(until=until)
    return reports


def connects(engine):
    """Handshakes the engine's transport attempted."""
    return engine.obs.registry.totals().get("comm.connects", 0)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "flag", ["predicate_index", "vectorize", "incremental",
                 "connection_pool", "concurrent_dispatch"])
    def test_transparent_paths_have_no_flag(self, flag):
        with pytest.raises(TypeError):
            EngineConfig(**{flag: True})

    def test_engine_builds_fastpath_only_when_asked(self):
        """The pool is every engine's; the status cache is opt-in."""
        plain = build_fast_lab(EngineConfig())
        assert plain.status_cache is None
        assert plain.pool is plain.comm.transport.pool
        fast = build_fast_lab(EngineConfig(**FASTPATH_ON))
        assert fast.status_cache is not None
        assert fast.comm.transport.pool is fast.pool


class TestStatusCacheIntegration:
    @camera_ttl(60.0)
    def test_fresh_cache_skips_probe_exchanges(self):
        engine = build_fast_lab(EngineConfig(**FASTPATH_ON))
        candidates = ("cam1", "cam2", "cam3")
        submit_photo(engine, candidates, x=10.0)
        drive(engine, until=20.0)
        first_round = engine.statistics()["probes_sent"]
        assert first_round == 3          # cold cache probes everyone
        # Second batch: executed device was invalidated, the two idle
        # candidates answer from cache.
        submit_photo(engine, candidates, x=11.0)
        drive(engine, until=40.0)
        assert engine.statistics()["probes_sent"] == first_round + 1
        assert engine.statistics()["status_cache_hits"] == 2

    @camera_ttl(60.0)
    def test_execution_invalidates_so_next_batch_reprobes(self):
        """The correctness core: a served device's cached status is the
        pre-execution snapshot and must not cost the next batch."""
        engine = build_fast_lab(EngineConfig(**FASTPATH_ON), n_cameras=1)
        submit_photo(engine, ("cam1",), x=10.0)
        drive(engine, until=20.0)
        assert engine.statistics()["probes_sent"] == 1
        assert engine.statistics()["status_cache_invalidations"] == 1
        before = engine.statistics()["status_cache_hits"]
        submit_photo(engine, ("cam1",), x=11.0)
        drive(engine, until=40.0)
        # Re-probed, not served from cache.
        assert engine.statistics()["probes_sent"] == 2
        assert engine.statistics()["status_cache_hits"] == before

    @camera_ttl(120.0)
    def test_cached_and_probed_batches_service_identically(self):
        """A warm cache changes how statuses are fetched, never which
        requests get serviced."""
        def run(config):
            engine = build_fast_lab(config)
            candidates = ("cam1", "cam2", "cam3")
            for round_no in range(4):
                submit_photo(engine, candidates,
                             request_id=f"fp{round_no}",
                             x=10.0 + round_no)
                drive(engine, until=20.0 * (round_no + 1))
            return engine

        slow = run(EngineConfig(**FASTPATH_OFF))
        fast = run(EngineConfig(**FASTPATH_ON))
        serviced = lambda e: sorted(
            r.request_id for r in e.completed_requests
            if r.state.value == "serviced")
        assert serviced(slow) == serviced(fast)
        assert fast.statistics()["probes_sent"] \
            < slow.statistics()["probes_sent"]
        # Both engines pool: a handshake per camera, not per probe.
        assert connects(fast) == connects(slow) == 3

    @camera_ttl(60.0)
    def test_probe_failure_invalidates_cache(self):
        engine = build_fast_lab(EngineConfig(**FASTPATH_ON), n_cameras=2)
        submit_photo(engine, ("cam1", "cam2"), x=10.0)
        drive(engine, until=20.0)
        assert len(engine.status_cache) >= 1
        engine.comm.registry.get("cam1").go_offline()
        engine.status_cache.clear()      # force the next batch to probe
        submit_photo(engine, ("cam1", "cam2"), x=11.0)
        drive(engine, until=60.0)
        # The dead camera's probe failed; nothing cached for it.
        assert engine.status_cache.lookup(
            engine.comm.registry.get("cam1")) is None


class TestPoolIntegration:
    def test_pool_reuses_channels_across_batches(self):
        engine = build_fast_lab(EngineConfig())
        candidates = ("cam1", "cam2", "cam3")
        for round_no in range(3):
            submit_photo(engine, candidates, x=10.0 + round_no)
            drive(engine, until=20.0 * (round_no + 1))
        assert engine.statistics()["pool_hits"] > 0
        # Handshakes happen once per device, not once per exchange.
        stats = engine.statistics()
        assert connects(engine) < stats["pool_hits"] + stats["pool_misses"]

    def test_breaker_transition_drops_pool_and_cache_state(self):
        engine = build_fast_lab(EngineConfig(
            status_cache=True,
            health=HealthPolicy(failure_threshold=1,
                                quarantine_seconds=30.0)))
        cam1 = engine.comm.registry.get("cam1")
        engine.status_cache.store(cam1, {"pan": 0.0})
        assert engine.status_cache.lookup(cam1) is not None
        engine.health.record_failure("cam1", reason="test")
        assert engine.health.state_of("cam1") is BreakerState.OPEN
        assert engine.status_cache.lookup(cam1) is None
        stats = engine.statistics()
        assert stats["pool_invalidations"] \
            + stats["status_cache_invalidations"] >= 1

    @camera_ttl(600.0)
    def test_readded_device_pays_a_handshake_and_a_probe(self):
        """A device that left takes its pooled channel and cached
        status with it: whoever joins under its id is a stranger."""
        engine = build_fast_lab(EngineConfig(**FASTPATH_ON), n_cameras=2)
        candidates = ("cam1", "cam2")
        submit_photo(engine, candidates, x=10.0)
        drive(engine, until=5.0)
        engine.comm.remove_device("cam2")
        newcomer = engine.add_device(PanTiltZoomCamera(
            engine.env, "cam2", Point(20.0, 0.0),
            facing=0.0, view_half_angle=170.0, view_range=1000.0))
        handshakes = connects(engine)
        probes = engine.statistics()["probes_sent"]

        checked_out = []

        def checkout(env):
            connection = engine.pool.checkout(newcomer)
            if connection is None:
                connection = yield from engine.pool.transport.connect(
                    newcomer, 1.0)
            checked_out.append(connection)
            engine.pool.release(connection)

        engine.env.process(checkout(engine.env))
        engine.env.run(until=6.0)
        assert checked_out[0].device is newcomer
        assert connects(engine) == handshakes + 1
        # And the next batch probes the newcomer instead of costing it
        # from the departed camera's snapshot.
        engine.status_cache.invalidate("cam1")
        submit_photo(engine, candidates, x=11.0)
        drive(engine, until=20.0)
        assert engine.statistics()["probes_sent"] == probes + 2
        # Both halves were dropped at departure, by the membership hook.
        assert engine.statistics()["pool_invalidations"] == 1
        assert engine.statistics()["status_cache_invalidations"] >= 2

    def test_every_open_connection_is_parked_at_quiescence(self):
        """Conservation under faults: after outages, retries, breaker
        transitions and a quiesce, each connection the transport ever
        opened is closed or idle in the pool, at most one per device."""
        env = Environment()
        engine = AortaEngine(env, seed=3, config=EngineConfig(
            status_cache=True,
            retry=RetryPolicy(max_attempts=2, failover=True),
            health=HealthPolicy(failure_threshold=1,
                                quarantine_seconds=5.0)))
        cameras = [engine.add_device(PanTiltZoomCamera(
            env, f"cam{i + 1}", Point(20.0 * i, 0.0), facing=0.0,
            view_half_angle=170.0, view_range=1000.0)) for i in range(4)]
        motes = [engine.add_device(SensorMote(
            env, f"mote{i + 1}", Point(5.0 + i, 3.0),
            noise_amplitude=0.0)) for i in range(3)]
        engine.execute(FIGURE_1)
        for tick in range(12):
            motes[tick % 3].inject(SensorStimulus(
                "accel_x", start=2.0 + 5.0 * tick, duration=2.5,
                magnitude=850.0))
        injector = FailureInjector(env)
        injector.schedule_outage(cameras[0], OutageSpec(
            device_id="cam1", start=6.0, duration=20.0, kind="offline"))
        injector.schedule_outage(cameras[1], OutageSpec(
            device_id="cam2", start=15.0, duration=10.0, kind="crash"))
        injector.schedule_outage(motes[0], OutageSpec(
            device_id="mote1", start=10.0, duration=15.0, kind="offline"))

        opened = []
        transport = engine.comm.transport
        connect = transport.connect

        def recording_connect(device, timeout):
            connection = yield from connect(device, timeout)
            opened.append(connection)
            return connection

        transport.connect = recording_connect
        engine.start()
        engine.run(until=70.0)
        engine.disable_query("snapshot")
        engine.run(until=130.0)

        stats = engine.statistics()
        assert stats["devices_quarantined"] > 0
        assert stats["pool_discards"] > 0
        assert stats["requests_serviced"] > 0
        parked = {id(entry.connection)
                  for entry in engine.pool._idle.values()}
        still_open = [c for c in opened if not c.closed]
        assert still_open
        assert {id(c) for c in still_open} == parked
        assert len(engine.pool) <= len(engine.comm.registry)


class TestConcurrentDispatch:
    def _two_action_engine(self):
        engine = build_fast_lab(EngineConfig(), n_cameras=2)
        photo = engine.dispatcher.operator_for(engine.actions.get("photo"))
        beep = engine.dispatcher.operator_for(engine.actions.get("beep"))
        photo.submit(ActionRequest(
            action_name="photo",
            arguments={"target": Point(10.0, 5.0), "directory": "photos"},
            created_at=0.0, candidates=("cam1",), request_id="cp1"))
        beep.submit(ActionRequest(
            action_name="beep", arguments={},
            created_at=0.0, candidates=("mote1",), request_id="cb1"))
        return engine

    def test_concurrent_batches_overlap(self):
        engine = self._two_action_engine()
        first, second = drive(engine, until=60.0)
        assert (first.action_name, second.action_name) == ("photo", "beep")
        # Both start at the same instant, so the second action's batch
        # is under way before the first one's is over.
        assert first.batch_started_at == second.batch_started_at
        assert second.batch_started_at < first.batch_finished_at
        assert sorted(r.request_id for r in engine.completed_requests
                      if r.state.value == "serviced") == ["cb1", "cp1"]

    def test_concurrent_dispatch_services_the_same_requests(self):
        """Overlapping the batches services what dispatching them one
        after the other (by hand, in operator order) services."""
        serviced = lambda e: sorted(
            r.request_id for r in e.completed_requests
            if r.state.value == "serviced")
        overlapped = self._two_action_engine()
        drive(overlapped, until=60.0)

        serial = self._two_action_engine()
        finished = []

        def one_by_one(env):
            dispatcher = serial.dispatcher
            for operator in list(dispatcher._operators.values()):
                report = yield from dispatcher.dispatch_batch(
                    operator.action, operator.drain())
                finished.append(report)

        serial.env.process(one_by_one(serial.env))
        serial.env.run(until=60.0)
        assert finished[1].batch_started_at >= finished[0].batch_finished_at
        assert serviced(serial) == serviced(overlapped) == ["cb1", "cp1"]

    def test_dispatch_pending_iterates_a_snapshot(self):
        """Operators created while a batch dispatches (failover does
        this lazily) must not blow up the drain loop."""
        engine = build_fast_lab(EngineConfig(), n_cameras=1)
        submit_photo(engine, ("cam1",), request_id="snap1")
        dispatcher = engine.dispatcher
        original = dispatcher.dispatch_batch

        def mutating_dispatch(action, batch):
            # Registering a new operator mutates dispatcher._operators
            # mid-drain; a dict-iteration would raise RuntimeError.
            dispatcher.operator_for(engine.actions.get("beep"))
            return original(action, batch)

        dispatcher.dispatch_batch = mutating_dispatch
        reports = drive(engine, until=60.0)
        assert len(reports) == 1
        assert "beep" in dispatcher._operators


#: A band workload: one photo AQ per band of ``accel_x``, and one event
#: every ``period`` seconds whose magnitude lands in exactly one band.
#: Every batch probes the whole camera fleet as candidates, and its
#: execution invalidates only the camera that took the photo.
BAND_WORKLOAD = dict(cameras=12, motes=4, bands=12, period=12.0,
                     stimulus=10.0)


def band_workload(status_cache):
    """The band workload's engine, run until every event has drained."""
    shape = BAND_WORKLOAD
    env = Environment()
    engine = AortaEngine(env, config=EngineConfig(status_cache=status_cache),
                         seed=0)
    for k in range(shape["cameras"]):
        engine.add_device(PanTiltZoomCamera(
            env, f"cam{k + 1:02d}", Point(2.5 * k, 0.0), facing=0.0,
            view_half_angle=170.0, view_range=1000.0,
            ip_address=f"10.0.0.{k + 1}"))
    for m in range(shape["motes"]):
        engine.add_device(SensorMote(
            env, f"mote{m + 1}", Point(10.0 + 10.0 * m, 20.0),
            noise_amplitude=0.0))
    for k in range(shape["bands"]):
        engine.execute(f'''CREATE AQ band{k:02d} AS
            SELECT photo(c.ip, s.loc, "photos/band{k:02d}")
            FROM sensor s, camera c
            WHERE s.accel_x > {500 + 10 * k} AND s.accel_x <= {510 + 10 * k}
              AND coverage(c.id, s.loc)''')
        engine.comm.registry.get(f"mote{k % shape['motes'] + 1}").inject(
            SensorStimulus("accel_x", start=4.0 + shape["period"] * k,
                           duration=shape["stimulus"],
                           magnitude=505.0 + 10.0 * k))
    engine.start()
    engine.run(until=4.0 + shape["period"] * shape["bands"] + 40.0)
    return engine


class TestBandWorkload:
    @patch.dict(DEFAULT_STATUS_TTLS, camera=30.0)
    def test_the_status_cache_halves_probes_and_changes_no_outcome(self):
        """Cached statuses answer for the idle candidates, so at least
        half the probe exchanges go; the same band events are serviced
        and batches take no longer (probes run in parallel, so skipping
        them saves exchanges, not latency). Either way, most channel
        checkouts are pool hits."""
        def outcome(engine):
            serviced = sorted(
                int((r.created_at - 4.0) // BAND_WORKLOAD["period"])
                for r in engine.completed_requests
                if r.state.value == "serviced")
            makespans = [r.makespan_seconds
                         for r in engine.dispatcher.reports]
            return serviced, sum(makespans) / len(makespans)

        probed, cached = band_workload(False), band_workload(True)
        (probed_events, probed_makespan), (cached_events, cached_makespan) \
            = outcome(probed), outcome(cached)
        assert probed_events == cached_events \
            == list(range(BAND_WORKLOAD["bands"]))
        assert cached_makespan <= 1.02 * probed_makespan
        probes = [engine.statistics()["probes_sent"]
                  for engine in (probed, cached)]
        assert probes[1] * 2 <= probes[0]
        for engine in (probed, cached):
            assert engine.statistics()["pool_hit_rate"] >= 0.5


class TestFastpathOffIdentity:
    """``status_cache=False`` is the dataclass default, i.e. the engine
    ``tests/obs/test_golden.py`` pins; what is left to check here is
    what switching it *on* may change."""

    def test_fastpath_on_differs_only_in_comm_traffic(self):
        """Sanity: the status cache changes probe traffic and adds its
        own statistics keys, but the serviced set is untouched."""
        off = dump_engine(snapshot_scenario(observability=None,
                                            **FASTPATH_OFF))
        on = dump_engine(snapshot_scenario(observability=None,
                                           **FASTPATH_ON))
        assert on["serviced"] == off["serviced"]
        assert on["statistics"]["requests_serviced"] \
            == off["statistics"]["requests_serviced"]
        assert "status_cache_hits" in on["statistics"]
        assert "status_cache_hits" not in off["statistics"]
        assert "pool_hits" in on["statistics"]
        assert "pool_hits" in off["statistics"]


# ----------------------------------------------------------------------
# Property test: the serviced set is invariant under the status cache.
# ----------------------------------------------------------------------
class TestServicedSetInvariance:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rounds=st.integers(min_value=1, max_value=4),
           n_cameras=st.integers(min_value=1, max_value=4),
           ttl=st.floats(min_value=0.5, max_value=120.0))
    def test_fastpath_never_changes_which_requests_are_serviced(
            self, rounds, n_cameras, ttl):
        def run(config):
            engine = build_fast_lab(config, n_cameras=n_cameras)
            candidates = tuple(f"cam{i + 1}" for i in range(n_cameras))
            for round_no in range(rounds):
                submit_photo(engine, candidates,
                             request_id=f"pr{round_no}",
                             x=5.0 + 3.0 * round_no)
                drive(engine, until=30.0 * (round_no + 1))
            return sorted(r.request_id
                          for r in engine.completed_requests
                          if r.state.value == "serviced")

        off = run(EngineConfig(**FASTPATH_OFF))
        with camera_ttl(ttl):
            on = run(EngineConfig(**FASTPATH_ON))
        assert off == on
