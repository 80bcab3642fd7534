"""ConnectionPool: keep-alive reuse, expiry, one channel per device,
invalidation."""

import random
from collections import Counter

import pytest

from repro import PanTiltZoomCamera, Point, SensorMote
from repro.comm import CommunicationLayer
from repro.comm.pool import POOL_IDLE_SECONDS, ConnectionPool
from repro.core.engine import statistics_view
from repro.network.message import Message
from repro.obs import Observability
from repro.profiles.defaults import register_builtin_types

from tests.comm.conftest import LOSSLESS_LINKS, run


@pytest.fixture
def pool(layer):
    return layer.transport.pool


def checkout(env, pool, device, timeout=1.0):
    """What ``Transport.exchange`` does: the parked channel, else a
    handshake."""
    connection = pool.checkout(device)
    if connection is None:
        connection = run(env, pool.transport.connect(device, timeout))
    return connection


def counts(layer):
    """The layer's counter totals (0 for a name never counted)."""
    return Counter(layer.transport.obs.registry.totals())


def pool_statistics(layer, pool):
    """The pool block of ``statistics()`` over the layer's registry."""
    return statistics_view(layer.transport.obs.registry, {
        "virtual_time": 0.0, "devices": 0, "queries": 0,
        "requests_completed": 0, "pool_idle": len(pool)})


class TestCheckout:
    def test_first_checkout_is_a_miss_that_connects(self, env, layer,
                                                    lab, pool):
        connection = checkout(env, pool, lab["cam1"])
        assert not connection.closed
        assert counts(layer)["comm.pool.misses"] == 1
        assert counts(layer)["comm.pool.hits"] == 0
        assert counts(layer)["comm.connects"] == 1

    def test_release_then_checkout_reuses_without_handshake(
            self, env, layer, lab, pool):
        connection = checkout(env, pool, lab["cam1"])
        pool.release(connection)
        assert len(pool) == 1
        again = checkout(env, pool, lab["cam1"])
        assert again is connection
        assert counts(layer)["comm.pool.hits"] == 1
        # No second handshake was paid.
        assert counts(layer)["comm.connects"] == 1

    def test_pooled_connection_still_serves_requests(self, env, layer,
                                                     lab, pool):
        connection = checkout(env, pool, lab["cam1"])
        pool.release(connection)
        again = checkout(env, pool, lab["cam1"])
        response = run(env, again.request(
            Message(kind="ping", device_id="cam1"), 1.0))
        assert response.ok

    def test_concurrent_checkouts_open_extra_connections(
            self, env, layer, lab, pool):
        first = checkout(env, pool, lab["cam1"])
        second = checkout(env, pool, lab["cam1"])
        assert first is not second
        # Parking both: the second is surplus and gets closed.
        pool.release(first)
        pool.release(second)
        assert len(pool) == 1
        assert second.closed and not first.closed
        assert counts(layer)["comm.pool.discarded"] == 1


class TestExpiry:
    def test_idle_connection_expires_after_idle_seconds(self, env, layer,
                                                        lab, pool):
        connection = checkout(env, pool, lab["cam1"])
        pool.release(connection)
        env.run(until=env.now + POOL_IDLE_SECONDS + 1.0)
        fresh = checkout(env, pool, lab["cam1"])
        assert fresh is not connection
        assert connection.closed
        assert counts(layer)["comm.pool.expired"] == 1
        assert counts(layer)["comm.connects"] == 2

    def test_connection_at_exact_idle_boundary_survives(self, env, layer,
                                                        lab, pool):
        connection = checkout(env, pool, lab["cam1"])
        pool.release(connection)
        env.run(until=env.now + POOL_IDLE_SECONDS)
        assert checkout(env, pool, lab["cam1"]) is connection


class TestCapacity:
    def test_every_device_keeps_its_channel(self, env, layer, pool):
        """No cap beside the registry's: one parked channel per device,
        however many devices there are."""
        motes = [SensorMote(env, f"mote{i:03d}", Point(i, 0))
                 for i in range(100)]
        held = []
        for mote in motes:
            layer.add_device(mote)
            held.append(checkout(env, pool, mote))
        for connection in held:
            pool.release(connection)
        assert len(pool) == len(motes)
        assert not any(connection.closed for connection in held)
        assert all(checkout(env, pool, mote) is connection
                   for mote, connection in zip(motes, held))
        assert counts(layer)["comm.pool.hits"] == len(motes)

    def test_validation(self, env, layer):
        with pytest.raises(TypeError):
            ConnectionPool(env, layer.transport, capacity=64)

    def test_idle_expiry_is_no_keyword(self, env, layer):
        """The expiry is the module constant (DESIGN decision 24)."""
        with pytest.raises(TypeError):
            ConnectionPool(env, layer.transport, idle_seconds=10.0)


class TestInvalidation:
    def test_invalidate_closes_and_drops_the_idle_channel(self, env, layer,
                                                          lab, pool):
        connection = checkout(env, pool, lab["cam1"])
        pool.release(connection)
        pool.invalidate("cam1", reason="breaker-open")
        assert connection.closed
        assert len(pool) == 0
        assert counts(layer)["comm.pool.invalidations"] == 1

    def test_invalidate_unknown_device_is_a_noop(self, layer, pool):
        pool.invalidate("nobody")
        assert counts(layer)["comm.pool.invalidations"] == 0

    def test_discard_never_parks_the_channel(self, env, layer, lab, pool):
        connection = checkout(env, pool, lab["cam1"])
        pool.discard(connection)
        assert connection.closed
        assert len(pool) == 0


class TestStats:
    def test_hit_rate_and_stats_shape(self, env, layer, lab, pool):
        connection = checkout(env, pool, lab["cam1"])
        pool.release(connection)
        checkout(env, pool, lab["cam1"])
        stats = pool_statistics(layer, pool)
        assert stats["pool_hits"] == 1 and stats["pool_misses"] == 1
        assert stats["pool_hit_rate"] == 0.5
        assert stats["pool_idle"] == 0

    def test_empty_pool_hit_rate_is_zero(self, layer, pool):
        assert pool_statistics(layer, pool)["pool_hit_rate"] == 0.0

    def test_size_gauge_follows_every_checkout(self, env):
        """``comm.pool.size`` is the number of parked channels after a
        hit and after an expiry, not only after a park."""
        obs = Observability(env, enabled=True)
        layer = CommunicationLayer(env, links=dict(LOSSLESS_LINKS),
                                   rng=random.Random(0), obs=obs)
        register_builtin_types(layer)
        camera = PanTiltZoomCamera(env, "cam1", Point(0, 0))
        layer.add_device(camera)
        pool = layer.transport.pool

        def size():
            return obs.registry.snapshot()["gauges"]["comm.pool.size"]

        pool.release(checkout(env, pool, camera))
        assert size() == len(pool) == 1
        connection = checkout(env, pool, camera)       # a hit
        assert size() == len(pool) == 0
        pool.release(connection)
        env.run(until=env.now + POOL_IDLE_SECONDS + 1.0)
        connection = checkout(env, pool, camera)       # an expiry
        assert size() == len(pool) == 0


def test_channel_to_a_departed_object_is_not_reused(env, layer, lab, pool):
    """A holder that releases after its device left parks a channel to
    the departed object; whoever joins under the id must not get it."""
    connection = checkout(env, pool, lab["cam1"])
    layer.remove_device("cam1")
    pool.release(connection)
    newcomer = PanTiltZoomCamera(env, "cam1", Point(0, 0))
    layer.add_device(newcomer)
    fresh = checkout(env, pool, newcomer)
    assert fresh is not connection and fresh.device is newcomer
    assert connection.closed and counts(layer)["comm.pool.expired"] == 1
