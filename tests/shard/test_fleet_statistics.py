"""Fleet ``statistics()`` is the engine's view over the shards' merged
registries: counts add, and a mean or a level is recomputed from the
added counts, never averaged or maxed across shards."""

from __future__ import annotations

from unittest.mock import patch

import pytest

from repro import EngineConfig, HealthPolicy, Point, SensorStimulus
from repro.actions.request import REASON_EVICTED, ActionRequest
from repro.comm.status_cache import DEFAULT_STATUS_TTLS
from tests.core.conftest import FIGURE_1, build_lab
from tests.obs.scenarios import overload_storm_scenario
from tests.shard.scenarios import FIGURE_1_AQ
from tests.shard.test_coordinator import two_shard_fleet

#: One failed probe opens a breaker for five seconds; a relapse
#: doubles the window.
BREAKER = HealthPolicy(failure_threshold=1, quarantine_seconds=5.0)


def _photo(shard: int, *cameras: str) -> ActionRequest:
    """A photo of the mote in ``shard``'s region, for ``cameras``."""
    return ActionRequest(
        action_name="photo",
        arguments={"target": Point(1000.0 * shard + 5.0, 3.0),
                   "directory": "photos"},
        candidates=cameras)


def _outage_fleet():
    """Two shards whose cameras go down, recover at different times and
    go down again: shard 0 readmits two cameras ~6 s after their
    quarantine began, shard 1 one camera ~29 s after, and at the end
    each shard holds two cameras in quarantine."""
    fleet = two_shard_fleet(health=BREAKER)
    fleet.start()
    cameras = {0: ("cam00a", "cam00b"), 1: ("cam01a", "cam01b")}
    for names in cameras.values():
        for name in names:
            fleet.device(name).go_offline()
    fleet.submit(_photo(0, *cameras[0]))
    fleet.submit(_photo(1, *cameras[1]))
    fleet.run(until=2.0)                        # four quarantines
    for name in ("cam00a", "cam00b"):
        fleet.device(name).go_online()
    fleet.run(until=7.0)
    fleet.submit(_photo(0, *cameras[0]))        # probation: readmitted
    fleet.run(until=29.0)
    fleet.device("cam01a").go_online()
    fleet.run(until=30.0)
    fleet.submit(_photo(1, *cameras[1]))        # cam01a readmitted
    fleet.run(until=35.0)
    for name in ("cam00a", "cam00b", "cam01a"):
        fleet.device(name).go_offline()
    fleet.submit(_photo(0, *cameras[0]))
    fleet.submit(_photo(1, *cameras[1]))
    fleet.run(until=37.0)                       # windows still open
    return fleet


def test_fleet_recovery_mean_and_quarantine_count_add_up():
    """The fleet mean is Σ recovery seconds / Σ readmissions, not the
    mean of the shards' means (a shard with one recovery must not weigh
    as much as one with two), and the quarantined count is the sum over
    shards, which own their devices disjointly, not the largest."""
    fleet = _outage_fleet()
    per_shard = fleet.shard_statistics()
    assert [s["devices_readmitted"] for s in per_shard] == [2, 1]
    assert [s["currently_quarantined"] for s in per_shard] == [2, 2]
    seconds = [record["recovery_seconds"] for engine in fleet.shards
               for record in engine.tracer.of_kind("device_readmitted")]
    assert len(seconds) == 3
    stats = fleet.statistics()
    assert stats["devices_readmitted"] == 3
    assert stats["mean_recovery_seconds"] == pytest.approx(
        sum(seconds) / 3, rel=1e-12)
    assert stats["mean_recovery_seconds"] != pytest.approx(
        sum(s["mean_recovery_seconds"] for s in per_shard) / 2)
    assert stats["currently_quarantined"] == 4 == sum(
        s["currently_quarantined"] for s in per_shard)
    assert stats["devices_quarantined"] == sum(
        s["devices_quarantined"] for s in per_shard)


def test_fleet_statistics_keep_keys_and_types_of_a_shard():
    fleet = _outage_fleet()
    stats, [shard, _] = fleet.statistics(), fleet.shard_statistics()
    assert set(stats) == set(shard) | {"shards"}
    assert {key: type(value) for key, value in stats.items()
            if key != "shards"} \
        == {key: type(value) for key, value in shard.items()}


def test_dropped_query_failures_are_counted_where_statistics_read():
    """DROP AQ fails its waiting requests outside any batch, so a
    failure count summed from batch reports would miss them: the
    metric is counted at the failure exit, like the statistic."""
    engine = build_lab(config=EngineConfig(observability=True))
    engine.execute(FIGURE_1)
    engine.comm.registry.get("mote1").inject(SensorStimulus(
        "accel_x", start=0.0, duration=5.0, magnitude=900.0))
    engine.start()
    while not engine.dispatcher.pending_requests:
        engine.env.step()
    engine.execute("DROP AQ snapshot")
    engine.run(until=20.0)

    counters = engine.metrics()["counters"]
    assert engine.statistics()["requests_failed"] == 1
    assert counters["dispatch.requests_failed"] == 1.0


def _exits(stats):
    return (stats["requests_serviced"] + stats["requests_failed"]
            + stats.get("requests_shed", 0))


def test_three_exits_conserve_on_an_overloaded_engine():
    """Every completed request left through exactly one exit, each
    counted where it left (a shed by the overload plane)."""
    stats = overload_storm_scenario().statistics()
    assert stats["requests_shed"] > 0 and stats["requests_serviced"] > 0
    assert stats["requests_completed"] == _exits(stats)


def test_queue_evictions_are_the_shed_count_of_their_reason():
    """``overload_queue_evictions`` is ``overload.shed{reason=
    queue-evicted}``: an eviction leaves through the shed exit, so the
    operator keeps no count of its own."""
    engine = overload_storm_scenario()
    stats = engine.statistics()
    evicted = [request for request in engine.completed_requests
               if request.failure_reason == REASON_EVICTED]
    assert stats["overload_queue_evictions"] == len(evicted) == \
        stats["overload_shed_by_reason"][REASON_EVICTED] > 0
    assert type(stats["overload_queue_evictions"]) is int


def _churn(fleet):
    """Band events in both regions; the AQ is dropped inside a batch
    window and created again. Returns the fleet's statistics at 40 s."""
    fleet.execute(FIGURE_1_AQ)
    for index in range(2):
        for start in (2.0, 12.0, 22.0):
            fleet.inject(f"mote{index:02d}", SensorStimulus(
                "accel_x", start=start + index, duration=3.0,
                magnitude=850.0))
    fleet.start()
    now = 10.0
    fleet.run(until=now)
    while not any(engine.dispatcher.pending_requests
                  for engine in fleet.shards):
        now += 0.01
        fleet.run(until=now)
    fleet.execute("DROP AQ snapshot")          # inside a batch window
    fleet.run(until=18.0)
    fleet.execute(FIGURE_1_AQ)
    fleet.run(until=40.0)
    return fleet.statistics()


@pytest.mark.parametrize("overload", [False, True])
def test_three_exits_conserve_on_a_fleet_with_query_churn(overload):
    fleet = two_shard_fleet(overload=overload)
    stats = _churn(fleet)
    assert stats["requests_failed"] >= 1       # the churn's casualties
    assert stats["requests_completed"] == _exits(stats) == sum(
        _exits(shard) for shard in fleet.shard_statistics())
    if overload:
        assert stats["overload_queue_evictions"] == sum(
            shard["overload_queue_evictions"]
            for shard in fleet.shard_statistics())


@patch.dict(DEFAULT_STATUS_TTLS, camera=600.0)
def test_three_exits_conserve_with_status_cache_and_overload_on_a_fleet():
    """The status cache, the overload plane and two shards together:
    every request leaves through one exit, and at quiescence every open
    channel is parked in its shard's pool."""
    fleet = two_shard_fleet(overload=True, status_cache=True)
    opened = []
    for engine in fleet.shards:
        transport = engine.comm.transport

        def recording_connect(device, timeout, connect=transport.connect):
            connection = yield from connect(device, timeout)
            opened.append(connection)
            return connection

        transport.connect = recording_connect
    stats = _churn(fleet)
    assert stats["requests_failed"] >= 1
    assert stats["status_cache_hits"] > 0
    assert stats["overload_admitted_requests"] > 0
    assert stats["requests_completed"] == _exits(stats) == sum(
        _exits(shard) for shard in fleet.shard_statistics())

    fleet.execute("DROP AQ snapshot")
    fleet.run(until=80.0)
    assert not any(engine.dispatcher.pending_requests
                   for engine in fleet.shards)
    parked = {id(entry.connection) for engine in fleet.shards
              for entry in engine.pool._idle.values()}
    assert parked
    assert {id(c) for c in opened if not c.closed} == parked


def test_scan_rows_add_up_across_shards():
    """``scan_rows`` / ``scan_rows_skipped`` render ``comm.scan.rows`` /
    ``.rows_skipped``: per shard, every poll scans its one mote, and a
    mote with a dead battery is skipped every time."""
    fleet = two_shard_fleet()
    fleet.execute(FIGURE_1_AQ)
    fleet.device("mote01").battery_volts = 1.5
    fleet.start()
    fleet.run(until=10.0)
    stats, shards = fleet.statistics(), fleet.shard_statistics()
    assert [shard["scan_rows_skipped"] for shard in shards] \
        == [0, shards[1]["polls"]]
    assert shards[1]["scan_rows"] == 0
    assert shards[0]["scan_rows"] == shards[0]["polls"] > 0
    assert stats["scan_rows"] == shards[0]["scan_rows"]
    assert stats["scan_rows_skipped"] == shards[1]["polls"]
    assert type(stats["scan_rows"]) is int
