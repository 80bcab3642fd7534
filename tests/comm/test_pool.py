"""ConnectionPool: keep-alive reuse, expiry, one channel per device,
invalidation."""

from collections import Counter

import pytest

from repro import PanTiltZoomCamera, Point, SensorMote
from repro.errors import CommunicationError
from repro.comm.pool import ConnectionPool
from repro.core.engine import statistics_view
from repro.network.message import Message

from tests.comm.conftest import run


@pytest.fixture
def pool(env, layer):
    pool = ConnectionPool(env, layer.transport, idle_seconds=10.0)
    layer.transport.pool = pool
    return pool


def checkout(env, transport, device, timeout=1.0):
    return run(env, transport.open(device, timeout))


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
        connection = checkout(env, layer.transport, lab["cam1"])
        assert not connection.closed
        assert counts(layer)["comm.pool.misses"] == 1
        assert counts(layer)["comm.pool.hits"] == 0
        assert counts(layer)["comm.connects"] == 1

    def test_release_then_checkout_reuses_without_handshake(
            self, env, layer, lab, pool):
        connection = checkout(env, layer.transport, lab["cam1"])
        layer.transport.release(connection)
        assert len(pool) == 1
        again = checkout(env, layer.transport, lab["cam1"])
        assert again is connection
        assert counts(layer)["comm.pool.hits"] == 1
        # No second handshake was paid.
        assert counts(layer)["comm.connects"] == 1

    def test_pooled_connection_still_serves_requests(self, env, layer,
                                                     lab, pool):
        connection = checkout(env, layer.transport, lab["cam1"])
        layer.transport.release(connection)
        again = checkout(env, layer.transport, lab["cam1"])
        response = run(env, again.request(
            Message(kind="ping", device_id="cam1"), 1.0))
        assert response.ok

    def test_concurrent_checkouts_open_extra_connections(
            self, env, layer, lab, pool):
        first = checkout(env, layer.transport, lab["cam1"])
        second = checkout(env, layer.transport, lab["cam1"])
        assert first is not second
        # Parking both: the second is surplus and gets closed.
        layer.transport.release(first)
        layer.transport.release(second)
        assert len(pool) == 1
        assert second.closed and not first.closed
        assert counts(layer)["comm.pool.discarded"] == 1


class TestExpiry:
    def test_idle_connection_expires_after_idle_seconds(self, env, layer,
                                                        lab, pool):
        connection = checkout(env, layer.transport, lab["cam1"])
        layer.transport.release(connection)
        env.run(until=env.now + 11.0)  # past idle_seconds=10
        fresh = checkout(env, layer.transport, lab["cam1"])
        assert fresh is not connection
        assert connection.closed
        assert counts(layer)["comm.pool.expired"] == 1
        assert counts(layer)["comm.connects"] == 2

    def test_connection_at_exact_idle_boundary_survives(self, env, layer,
                                                        lab, pool):
        connection = checkout(env, layer.transport, lab["cam1"])
        layer.transport.release(connection)
        env.run(until=env.now + 10.0)  # exactly idle_seconds
        assert checkout(env, layer.transport, lab["cam1"]) is connection


class TestCapacity:
    def test_every_device_keeps_its_channel(self, env, layer, pool):
        """No cap beside the registry's: one parked channel per device,
        however many devices there are."""
        motes = [SensorMote(env, f"mote{i:03d}", Point(i, 0))
                 for i in range(100)]
        held = []
        for mote in motes:
            layer.add_device(mote)
            held.append(checkout(env, layer.transport, mote))
        for connection in held:
            layer.transport.release(connection)
        assert len(pool) == len(motes)
        assert not any(connection.closed for connection in held)
        assert all(checkout(env, layer.transport, mote) is connection
                   for mote, connection in zip(motes, held))
        assert counts(layer)["comm.pool.hits"] == len(motes)

    def test_validation(self, env, layer):
        with pytest.raises(TypeError):
            ConnectionPool(env, layer.transport, capacity=64)
        with pytest.raises(CommunicationError, match="idle_seconds"):
            ConnectionPool(env, layer.transport, idle_seconds=0.0)


class TestInvalidation:
    def test_invalidate_closes_and_drops_the_idle_channel(self, env, layer,
                                                          lab, pool):
        connection = checkout(env, layer.transport, lab["cam1"])
        layer.transport.release(connection)
        pool.invalidate("cam1", reason="breaker-open")
        assert connection.closed
        assert len(pool) == 0
        assert counts(layer)["comm.pool.invalidations"] == 1

    def test_invalidate_unknown_device_is_a_noop(self, layer, pool):
        pool.invalidate("nobody")
        assert counts(layer)["comm.pool.invalidations"] == 0

    def test_discard_never_parks_the_channel(self, env, layer, lab, pool):
        connection = checkout(env, layer.transport, lab["cam1"])
        layer.transport.discard(connection)
        assert connection.closed
        assert len(pool) == 0


class TestStats:
    def test_hit_rate_and_stats_shape(self, env, layer, lab, pool):
        connection = checkout(env, layer.transport, lab["cam1"])
        layer.transport.release(connection)
        checkout(env, layer.transport, lab["cam1"])
        stats = pool_statistics(layer, pool)
        assert stats["pool_hits"] == 1 and stats["pool_misses"] == 1
        assert stats["pool_hit_rate"] == 0.5
        assert stats["pool_idle"] == 0

    def test_empty_pool_hit_rate_is_zero(self, layer, pool):
        assert pool_statistics(layer, pool)["pool_hit_rate"] == 0.0


def test_channel_to_a_departed_object_is_not_reused(env, layer, lab, pool):
    """A holder that releases after its device left parks a channel to
    the departed object; whoever joins under the id must not get it."""
    connection = checkout(env, layer.transport, lab["cam1"])
    layer.remove_device("cam1")
    layer.transport.release(connection)
    newcomer = PanTiltZoomCamera(env, "cam1", Point(0, 0))
    layer.add_device(newcomer)
    fresh = checkout(env, layer.transport, newcomer)
    assert fresh is not connection and fresh.device is newcomer
    assert connection.closed and counts(layer)["comm.pool.expired"] == 1
