"""Unit tests for named, reproducible seeds."""

import random

from repro.sim.rng import derive_seed


def test_different_names_differ():
    a = random.Random(derive_seed(42, "workload"))
    b = random.Random(derive_seed(42, "noise"))
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_different_master_seeds_differ():
    a = random.Random(derive_seed(1, "workload"))
    b = random.Random(derive_seed(2, "workload"))
    assert a.random() != b.random()


def test_derive_seed_stable():
    # Stable across runs/platforms (SHA-256-based, not hash()-based).
    assert derive_seed(42, "workload") == derive_seed(42, "workload")
    assert derive_seed(42, "a") != derive_seed(42, "b")


def test_component_seed_routes_through_derive_seed():
    from repro.sim.rng import component_seed
    assert component_seed(42, "dispatcher:retry-jitter") == \
        derive_seed(42, "dispatcher:retry-jitter")
    assert component_seed(42, "comm:probe") == derive_seed(42, "comm:probe")


def test_component_seed_pins_legacy_root_streams():
    # The transport consumed the raw master seed before unification;
    # its stream is pinned so recorded goldens stay byte-identical.
    from repro.sim.rng import LEGACY_ROOT_STREAMS, component_seed
    assert LEGACY_ROOT_STREAMS == frozenset({"comm:transport"})
    for seed in (0, 7, 123456):
        assert component_seed(seed, "comm:transport") == seed
