"""DeviceStatusCache: TTL freshness, copies, invalidation, counters."""

from collections import Counter

import pytest

from repro.core.engine import statistics_view
from repro.comm.status_cache import (
    DEFAULT_STATUS_TTLS,
    STATUS_TTL_SECONDS,
    DeviceStatusCache,
)
from repro.obs import Observability


@pytest.fixture
def cache(env):
    return DeviceStatusCache(env, obs=Observability(env))


def counted(cache, name):
    """One ``probe.cache.*`` count from the cache's registry."""
    return Counter(cache.obs.registry.totals())[f"probe.cache.{name}"]


class TestLookup:
    def test_miss_on_unknown_device(self, cache, lab):
        assert cache.lookup(lab["cam1"]) is None
        assert counted(cache, "misses") == 1

    def test_fresh_entry_hits(self, cache, lab):
        cache.store(lab["cam1"], {"pan": 10.0})
        assert cache.lookup(lab["cam1"]) == {"pan": 10.0}
        assert counted(cache, "hits") == 1

    def test_lookup_returns_a_copy(self, cache, lab):
        cache.store(lab["cam1"], {"pan": 10.0})
        cache.lookup(lab["cam1"])["pan"] = 999.0
        assert cache.lookup(lab["cam1"]) == {"pan": 10.0}

    def test_store_copies_its_input(self, cache, lab):
        status = {"pan": 10.0}
        cache.store(lab["cam1"], status)
        status["pan"] = 999.0
        assert cache.lookup(lab["cam1"]) == {"pan": 10.0}

    def test_entry_expires_after_its_type_ttl(self, env, cache, lab):
        cache.store(lab["cam1"], {"pan": 10.0})
        env.run(until=DEFAULT_STATUS_TTLS["camera"] + 0.5)
        assert cache.lookup(lab["cam1"]) is None
        assert counted(cache, "expired") == 1
        assert len(cache) == 0  # expired entries are swept on lookup

    def test_entry_at_exact_ttl_boundary_is_fresh(self, env, cache, lab):
        cache.store(lab["cam1"], {"pan": 10.0})
        env.run(until=DEFAULT_STATUS_TTLS["camera"])
        assert cache.lookup(lab["cam1"]) is not None

    def test_per_type_ttls_differ(self, env, cache, lab):
        cache.store(lab["cam1"], {"pan": 1.0})     # camera: 10s
        cache.store(lab["mote1"], {"battery": 0.9})  # sensor: 3s
        env.run(until=4.0)
        assert cache.lookup(lab["mote1"]) is None
        assert cache.lookup(lab["cam1"]) is not None

    def test_unknown_type_uses_default_ttl(self, env, cache):
        assert cache.ttl_for("toaster") == STATUS_TTL_SECONDS



class TestInvalidation:
    def test_invalidate_drops_the_entry(self, cache, lab):
        cache.store(lab["cam1"], {"pan": 10.0})
        cache.invalidate("cam1", reason="execution")
        assert cache.lookup(lab["cam1"]) is None
        assert counted(cache, "invalidations") == 1

    def test_invalidate_absent_entry_is_a_noop(self, cache):
        cache.invalidate("nobody")
        assert counted(cache, "invalidations") == 0

    def test_clear(self, cache, lab):
        cache.store(lab["cam1"], {"pan": 10.0})
        cache.store(lab["mote1"], {"battery": 0.9})
        cache.clear()
        assert len(cache) == 0


class TestValidationAndStats:
    def test_stats_shape(self, env, cache, lab):
        cache.store(lab["cam1"], {"pan": 10.0})
        cache.lookup(lab["cam1"])
        cache.lookup(lab["mote1"])
        stats = statistics_view(cache.obs.registry, {
            "virtual_time": env.now, "devices": 0, "queries": 0,
            "requests_completed": 0, "pool_idle": 0,
            "status_cache_entries": len(cache)})
        assert stats["status_cache_hits"] == 1
        assert stats["status_cache_misses"] == 1
        assert stats["status_cache_hit_rate"] == 0.5
        assert stats["status_cache_stores"] == 1
        assert stats["status_cache_entries"] == 1
