"""The comm fast path end to end: pooling, status caching, concurrency.

Two families of guarantees are pinned here. First, correctness of the
fast path itself: cache invalidation forces a re-probe after any
execution, breaker transitions drop fast-path state, concurrent
dispatch overlaps independent actions without changing outcomes.
Second, the off switch: with every knob off the engine must be
byte-identical to the pre-fastpath engine, which the checked-in obs
goldens pin on both runtime backends.
"""

import pytest

from repro import (
    AortaEngine,
    EngineConfig,
    Environment,
    HealthPolicy,
    PanTiltZoomCamera,
    Point,
    SensorMote,
    SensorStimulus,
)
from repro.errors import AortaError
from repro.actions.request import ActionRequest
from repro.devices.health import BreakerState
from repro.runtime import RealtimeRuntime, VirtualRuntime

from tests.core.conftest import LOSSLESS
from tests.obs.golden import (
    assert_golden,
    diff_dumps,
    dump_engine,
    render_diff,
)
from tests.obs.scenarios import continuous_outage_scenario, snapshot_scenario

FASTPATH_OFF = dict(connection_pool=False, status_cache=False,
                    concurrent_dispatch=False)
FASTPATH_ON = dict(connection_pool=True, status_cache=True)


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


class TestConfigValidation:
    def test_fastpath_property(self):
        assert not EngineConfig().comm_fastpath
        assert EngineConfig(connection_pool=True).comm_fastpath
        assert EngineConfig(status_cache=True).comm_fastpath
        assert EngineConfig(concurrent_dispatch=True).comm_fastpath

    @pytest.mark.parametrize(
        "flag", ["predicate_index", "vectorize", "incremental"])
    def test_transparent_paths_have_no_flag(self, flag):
        with pytest.raises(TypeError):
            EngineConfig(**{flag: True})

    def test_pool_knobs_validated(self):
        with pytest.raises(AortaError, match="pool_capacity"):
            EngineConfig(pool_capacity=0)
        with pytest.raises(AortaError, match="pool_idle_seconds"):
            EngineConfig(pool_idle_seconds=0.0)

    def test_cache_knobs_validated(self):
        with pytest.raises(AortaError, match="status_ttl_seconds"):
            EngineConfig(status_ttl_seconds=-1.0)
        with pytest.raises(AortaError, match="camera"):
            EngineConfig(status_ttls={"camera": 0.0})

    def test_engine_builds_fastpath_only_when_asked(self):
        plain = build_fast_lab(EngineConfig())
        assert plain.pool is None and plain.status_cache is None
        assert plain.comm.transport.pool is None
        fast = build_fast_lab(EngineConfig(**FASTPATH_ON))
        assert fast.pool is not None and fast.status_cache is not None
        assert fast.comm.transport.pool is fast.pool


class TestStatusCacheIntegration:
    def test_fresh_cache_skips_probe_exchanges(self):
        engine = build_fast_lab(EngineConfig(status_cache=True,
                                             status_ttls={"camera": 60.0}))
        candidates = ("cam1", "cam2", "cam3")
        submit_photo(engine, candidates, x=10.0)
        drive(engine, until=20.0)
        first_round = engine.comm.prober.probes_sent
        assert first_round == 3          # cold cache probes everyone
        # Second batch: executed device was invalidated, the two idle
        # candidates answer from cache.
        submit_photo(engine, candidates, x=11.0)
        drive(engine, until=40.0)
        assert engine.comm.prober.probes_sent == first_round + 1
        assert engine.status_cache.hits == 2

    def test_execution_invalidates_so_next_batch_reprobes(self):
        """The correctness core: a served device's cached status is the
        pre-execution snapshot and must not cost the next batch."""
        engine = build_fast_lab(EngineConfig(status_cache=True,
                                             status_ttls={"camera": 60.0}),
                                n_cameras=1)
        submit_photo(engine, ("cam1",), x=10.0)
        drive(engine, until=20.0)
        assert engine.comm.prober.probes_sent == 1
        assert engine.status_cache.invalidations == 1
        before = engine.status_cache.hits
        submit_photo(engine, ("cam1",), x=11.0)
        drive(engine, until=40.0)
        # Re-probed, not served from cache.
        assert engine.comm.prober.probes_sent == 2
        assert engine.status_cache.hits == before

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
        fast = run(EngineConfig(status_cache=True, connection_pool=True,
                                status_ttls={"camera": 120.0}))
        serviced = lambda e: sorted(
            r.request_id for r in e.completed_requests
            if r.state.value == "serviced")
        assert serviced(slow) == serviced(fast)
        assert fast.comm.prober.probes_sent \
            < slow.comm.prober.probes_sent
        assert fast.comm.transport.connects_attempted \
            < slow.comm.transport.connects_attempted

    def test_probe_failure_invalidates_cache(self):
        engine = build_fast_lab(EngineConfig(status_cache=True,
                                             status_ttls={"camera": 60.0}),
                                n_cameras=2)
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
        engine = build_fast_lab(EngineConfig(connection_pool=True))
        candidates = ("cam1", "cam2", "cam3")
        for round_no in range(3):
            submit_photo(engine, candidates, x=10.0 + round_no)
            drive(engine, until=20.0 * (round_no + 1))
        assert engine.pool.hits > 0
        # Handshakes happen once per device, not once per exchange.
        assert engine.comm.transport.connects_attempted \
            < engine.pool.hits + engine.pool.misses

    def test_breaker_transition_drops_pool_and_cache_state(self):
        engine = build_fast_lab(EngineConfig(
            connection_pool=True, status_cache=True,
            health=HealthPolicy(failure_threshold=1,
                                quarantine_seconds=30.0)))
        cam1 = engine.comm.registry.get("cam1")
        engine.status_cache.store(cam1, {"pan": 0.0})
        assert engine.status_cache.lookup(cam1) is not None
        engine.health.record_failure("cam1", reason="test")
        assert engine.health.state_of("cam1") is BreakerState.OPEN
        assert engine.status_cache.lookup(cam1) is None
        assert engine.pool.invalidations + engine.status_cache.invalidations \
            >= 1


class TestConcurrentDispatch:
    def _two_action_engine(self, config):
        engine = build_fast_lab(config, n_cameras=2)
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
        serial = self._two_action_engine(EngineConfig())
        serial_reports = drive(serial, until=60.0)
        overlapped = self._two_action_engine(
            EngineConfig(concurrent_dispatch=True))
        concurrent_reports = drive(overlapped, until=60.0)

        assert len(serial_reports) == len(concurrent_reports) == 2
        # Serial: the second batch starts after the first finishes.
        assert serial_reports[1].batch_started_at \
            >= serial_reports[0].batch_finished_at
        # Concurrent: both start at the same instant.
        starts = {r.batch_started_at for r in concurrent_reports}
        assert len(starts) == 1
        # And the whole drain finishes sooner.
        serial_makespan = max(r.batch_finished_at for r in serial_reports)
        concurrent_makespan = max(r.batch_finished_at
                                  for r in concurrent_reports)
        assert concurrent_makespan < serial_makespan

    def test_concurrent_dispatch_services_the_same_requests(self):
        outcomes = {}
        for label, config in (("serial", EngineConfig()),
                              ("concurrent",
                               EngineConfig(concurrent_dispatch=True))):
            engine = self._two_action_engine(config)
            drive(engine, until=60.0)
            outcomes[label] = sorted(
                r.request_id for r in engine.completed_requests
                if r.state.value == "serviced")
        assert outcomes["serial"] == outcomes["concurrent"]

    def test_dispatch_pending_iterates_a_snapshot(self):
        """Operators created while a batch dispatches (failover does
        this lazily) must not blow up the drain loop."""
        engine = build_fast_lab(EngineConfig(concurrent_dispatch=True),
                                n_cameras=1)
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


class TestFastpathOffIdentity:
    """All knobs off must be byte-identical to the pre-fastpath engine,
    pinned by the checked-in goldens on both runtime backends."""

    def test_snapshot_golden_with_explicit_fastpath_off(self):
        engine = snapshot_scenario(observability=True, **FASTPATH_OFF)
        assert_golden("snapshot_obs", dump_engine(engine))

    def test_continuous_outage_golden_with_explicit_fastpath_off(self):
        engine = continuous_outage_scenario(observability=True,
                                            **FASTPATH_OFF)
        assert_golden("continuous_outage_obs", dump_engine(engine))

    @pytest.mark.parametrize("backend", ["virtual", "realtime"])
    def test_both_backends_match_the_golden_with_fastpath_off(
            self, backend):
        env = (VirtualRuntime() if backend == "virtual"
               else RealtimeRuntime(time_scale=0))
        engine = snapshot_scenario(observability=True, env=env,
                                   **FASTPATH_OFF)
        assert_golden("snapshot_obs", dump_engine(engine))

    def test_fastpath_on_differs_only_in_comm_traffic(self):
        """Sanity: the fast path changes probe/connect traffic and adds
        its own statistics keys, but the serviced set is untouched."""
        off = dump_engine(snapshot_scenario(observability=None,
                                            **FASTPATH_OFF))
        on = dump_engine(snapshot_scenario(observability=None,
                                           **FASTPATH_ON))
        assert on["serviced"] == off["serviced"]
        assert on["statistics"]["requests_serviced"] \
            == off["statistics"]["requests_serviced"]
        assert "pool_hits" in on["statistics"]
        assert "pool_hits" not in off["statistics"]


# ----------------------------------------------------------------------
# Property test: the serviced set is invariant under the fast path.
# ----------------------------------------------------------------------
try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a test dep
    HAVE_HYPOTHESIS = False


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis unavailable")
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
        on = run(EngineConfig(connection_pool=True, status_cache=True,
                              status_ttl_seconds=ttl,
                              status_ttls={"camera": ttl}))
        assert off == on
