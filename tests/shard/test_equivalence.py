"""Shard-equivalence: the fleet must not change what gets computed.

Two layers of guarantee:

* **1-shard identity** — a ``ShardedEngine`` with ``shards=1`` is a
  pure pass-through, so its normalized dump (full trace, statistics,
  serviced set, metric snapshot) must be *byte-identical* to the plain
  engine's on the canonical golden scenarios, unpaced and paced, with
  observability on and off.
* **N-shard serviced-set equivalence** — on workloads whose device
  partitions are disjoint (the sharding contract), the set of serviced
  requests must be identical however many shards the fleet is split
  into: sharding changes who schedules, never what gets serviced.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.obs.golden import diff_dumps, dump_engine, render_diff
from tests.obs.scenarios import (
    continuous_outage_scenario,
    snapshot_scenario,
)
from tests.shard.scenarios import (
    region_fleet_scenario,
    sharded_continuous_outage_scenario,
    sharded_snapshot_scenario,
)

PAIRS = {
    "snapshot": (snapshot_scenario, sharded_snapshot_scenario),
    "continuous_outage": (continuous_outage_scenario,
                          sharded_continuous_outage_scenario),
}

#: The fleet builds its shards' runtimes from the config, so the paced
#: leg sleeps for real: at this scale the 30 s snapshot and the 70 s
#: outage run sleep 0.03 s and 0.07 s. Pacing never reorders events, so
#: the result does not depend on the host's speed.
BACKENDS = {
    "virtual": {},
    "realtime": {"time_scale": 0.001},
}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("name", sorted(PAIRS))
@pytest.mark.parametrize("observability", [None, True],
                         ids=["obs-off", "obs-on"])
def test_one_shard_fleet_is_byte_identical_to_plain_engine(
        name, backend, observability):
    plain_scenario, sharded_scenario = PAIRS[name]
    config_kwargs = dict(BACKENDS[backend])
    plain = dump_engine(plain_scenario(observability, **config_kwargs))
    sharded = sharded_scenario(observability, **config_kwargs)
    assert sharded.env.time_scale == config_kwargs.get("time_scale", 0.0)
    differences = diff_dumps(plain, dump_engine(sharded))
    assert not differences, render_diff(
        f"{name} ({backend}, plain vs shards=1)", differences)


def test_one_shard_fleet_backend_and_clock_match_plain_engine():
    plain = snapshot_scenario(None)
    fleet = sharded_snapshot_scenario(None)
    assert fleet.env.time_scale == plain.env.time_scale
    assert fleet.env.now == plain.env.now
    assert fleet.n_shards == 1


# ----------------------------------------------------------------------
# N-shard equivalence on disjoint-device workloads
# ----------------------------------------------------------------------
def _serviced_ids(fleet):
    return sorted(request.request_id
                  for request in fleet.completed_requests
                  if request.state.value == "serviced")


@settings(max_examples=6, deadline=None)
@given(n_regions=st.integers(min_value=2, max_value=4))
def test_sharded_serviced_set_equals_single_shard_on_disjoint_regions(
        n_regions):
    # Same N-region workload, split N ways vs. not at all: the
    # serviced sets must be permutation-equivalent (equal as sets;
    # completion interleaving across shard clocks may differ).
    sharded = region_fleet_scenario(n_regions)
    single = region_fleet_scenario(n_regions, shards=1)
    assert sharded.n_shards == n_regions
    assert single.n_shards == 1
    sharded_ids = _serviced_ids(sharded)
    single_ids = _serviced_ids(single)
    assert len(sharded_ids) == n_regions  # one photo per region fired
    # Auto-assigned request ids depend on process-global counters, so
    # compare by count and by which queries produced serviced work.
    assert len(sharded_ids) == len(single_ids)
    sharded_devices = sorted(
        request.assigned_device for request in sharded.completed_requests
        if request.state.value == "serviced")
    single_devices = sorted(
        request.assigned_device for request in single.completed_requests
        if request.state.value == "serviced")
    assert sharded_devices == single_devices


@settings(max_examples=4, deadline=None)
@given(n_regions=st.integers(min_value=2, max_value=3),
       n_shards=st.integers(min_value=2, max_value=3))
def test_region_workload_is_shard_count_invariant(n_regions, n_shards):
    # Regions need not map 1:1 onto shards: any disjoint partition of
    # the device space services the same work.
    base = region_fleet_scenario(n_regions, shards=1)
    split = region_fleet_scenario(n_regions, shards=min(n_shards,
                                                        n_regions))
    assert len(_serviced_ids(base)) == len(_serviced_ids(split))
    base_devices = sorted(
        request.assigned_device for request in base.completed_requests
        if request.state.value == "serviced")
    split_devices = sorted(
        request.assigned_device for request in split.completed_requests
        if request.state.value == "serviced")
    assert base_devices == split_devices


def _drop_wallclock(snapshot):
    # Same convention as the golden harness: wallclock metrics measure
    # host time, not virtual time, and are not reproducible.
    return {section: {key: value for key, value in entries.items()
                      if "wallclock" not in key}
            for section, entries in snapshot.items()}


def test_identical_multi_shard_runs_are_deterministic():
    first = region_fleet_scenario(4, True)
    second = region_fleet_scenario(4, True)
    assert first.statistics() == second.statistics()
    # Request ids are process-global counters; device assignments are
    # the run-content invariant.
    assert ([r.assigned_device for r in first.completed_requests]
            == [r.assigned_device for r in second.completed_requests])
    assert _drop_wallclock(first.metrics()) \
        == _drop_wallclock(second.metrics())
    assert _drop_wallclock(first.shard_labeled_metrics()) \
        == _drop_wallclock(second.shard_labeled_metrics())
