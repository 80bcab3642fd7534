"""Coordinator behaviour: routing, lifecycle, errors, fleet capacity.

The tests that touch only the facade take the ``build_fleet`` fixture
and run twice: here on an in-process fleet, and again from
:class:`TestOnThreadWorkers` at the end of the module on a worker
fleet hosted by the thread double of :mod:`tests.shard.thread_worker`.
Tests that look inside a shard's engine use :func:`two_shard_fleet`
directly and are in-process by nature.
"""

from __future__ import annotations

import json
import math

import pytest

from repro import (
    AortaEngine,
    DeviceSpec,
    EngineConfig,
    HashPlacement,
    PanTiltZoomCamera,
    Point,
    RegionPlacement,
    SensorMote,
    SensorStimulus,
    ShardedEngine,
)
from repro.actions.request import REASON_CAPACITY, ActionRequest
from repro.errors import (
    AortaError,
    RegistrationError,
    ShardingError,
    SimulationError,
)
from repro.overload.admission import CAPACITY_HORIZON, UTILIZATION_CAP
from repro.shard.coordinator import SHARD_QUANTUM, run_lockstep
from repro.shard.parallel import ShardHost
from tests.shard.scenarios import (
    FIGURE_1_AQ,
    STORM_UNTIL,
    RoundTap,
    coupled_storm_scenario,
    region_fleet_scenario,
    region_layout,
)
from tests.shard.thread_worker import thread_workers

TWO_REGIONS = RegionPlacement.from_regions(region_layout(2))


IN_PROCESS: dict = {}
WORKERS = {"parallel": True}


def two_shard_fleet(populate: bool = True,
                    **config_kwargs) -> ShardedEngine:
    """Two regions of (two cameras + one mote), one region per shard.

    Devices are :class:`DeviceSpec` values so the same builder serves
    a worker fleet (``**WORKERS``).
    """
    config = EngineConfig(shards=2, **config_kwargs)
    fleet = ShardedEngine(config=config, placement=TWO_REGIONS, seed=0)
    for index in range(2 if populate else 0):
        tag = f"{index:02d}"
        offset = 1000.0 * index
        fleet.add_device(f"cam{tag}a", DeviceSpec(
            PanTiltZoomCamera, f"cam{tag}a", Point(offset, 0)))
        fleet.add_device(f"cam{tag}b", DeviceSpec(
            PanTiltZoomCamera, f"cam{tag}b", Point(offset + 20, 0),
            facing=180.0))
        fleet.add_device(f"mote{tag}", DeviceSpec(
            SensorMote, f"mote{tag}", Point(offset + 5, 3),
            noise_amplitude=0.0))
    return fleet


@pytest.fixture
def transport() -> dict:
    """Where the fleets of ``build_fleet`` host their shards."""
    return IN_PROCESS


@pytest.fixture
def build_fleet(transport):
    """:func:`two_shard_fleet` on the transport under test.

    Closes every fleet it built, so worker threads never outlive the
    test.
    """
    built = []

    def build(**kwargs) -> ShardedEngine:
        fleet = two_shard_fleet(**transport, **kwargs)
        built.append(fleet)
        return fleet

    yield build
    for fleet in built:
        fleet.close()


def queries_per_shard(fleet: ShardedEngine) -> list:
    return [stats["queries"] for stats in fleet.shard_statistics()]


# ----------------------------------------------------------------------
# Construction and placement wiring
# ----------------------------------------------------------------------
def test_plain_engine_refuses_multi_shard_config():
    with pytest.raises(AortaError, match="ShardedEngine"):
        AortaEngine(config=EngineConfig(shards=2))


def test_config_validates_shard_knobs():
    with pytest.raises(AortaError):
        EngineConfig(shards=0)


@pytest.mark.parametrize("shards", [2.5, math.nan, 2.0, math.inf, "2"])
def test_config_refuses_a_shard_count_that_is_no_integer(shards):
    # 2.5 died later in ShardedEngine with a bare TypeError; NaN as
    # "placement covers nan shard(s)".
    with pytest.raises(AortaError, match="shards must be an integer"):
        EngineConfig(shards=shards)


def test_placement_width_must_match_config():
    with pytest.raises(ShardingError, match="config.shards"):
        ShardedEngine(config=EngineConfig(shards=4),
                      placement=HashPlacement(2))


def test_each_shard_gets_its_own_runtime_and_seed():
    fleet = two_shard_fleet()
    assert fleet.shard(0).env is not fleet.shard(1).env
    assert fleet.shard(0).seed != fleet.shard(1).seed
    with pytest.raises(ShardingError):
        fleet.shard(2)
    with pytest.raises(ShardingError):
        fleet.shard(-1)


def test_devices_land_on_their_placed_shard():
    fleet = two_shard_fleet()
    assert len(fleet.shard(0).comm.registry) == 3
    assert len(fleet.shard(1).comm.registry) == 3
    assert fleet.shard_of("cam00a") == 0
    assert fleet.shard_of("cam01b") == 1
    assert fleet.device("mote01").device_id == "mote01"


def test_factory_id_mismatch_is_refused(build_fleet):
    fleet = build_fleet(populate=False)
    with pytest.raises(ShardingError, match="declared id"):
        fleet.add_device("cam00a", DeviceSpec(
            PanTiltZoomCamera, "other", Point(0, 0)))


def test_unplaced_device_is_refused_loudly(build_fleet):
    fleet = build_fleet()
    with pytest.raises(ShardingError, match="ghost"):
        fleet.add_device("ghost", DeviceSpec(
            SensorMote, "ghost", Point(0, 0)))
    with pytest.raises(ShardingError, match="ghost"):
        fleet.inject("ghost", None)


def test_inject_refuses_devices_without_stimulus_support(build_fleet):
    fleet = build_fleet()
    with pytest.raises(ShardingError, match="stimuli"):
        fleet.inject("cam00a", None)


# ----------------------------------------------------------------------
# The declarative surface on a multi-shard fleet
# ----------------------------------------------------------------------
def test_create_aq_registers_on_every_shard():
    fleet = two_shard_fleet()
    result = fleet.execute(FIGURE_1_AQ)
    assert len(result) == 2
    for shard in fleet.shards:
        assert "snapshot" in shard.continuous.queries


def test_drop_aq_fans_out_and_returns_none(build_fleet):
    fleet = build_fleet()
    fleet.execute(FIGURE_1_AQ)
    assert queries_per_shard(fleet) == [1, 1]
    assert fleet.execute("DROP AQ snapshot") is None
    assert queries_per_shard(fleet) == [0, 0]


def test_snapshot_select_needs_a_single_shard(build_fleet):
    fleet = build_fleet()
    with pytest.raises(ShardingError, match="single shard"):
        fleet.execute("SELECT s.accel_x FROM sensor s")


def test_explain_describes_the_plan_without_registering(build_fleet):
    fleet = build_fleet()
    description = fleet.execute(f"EXPLAIN {FIGURE_1_AQ}")
    assert isinstance(description, str) and "photo" in description
    assert queries_per_shard(fleet) == [0, 0]


def test_create_aq_admission_failure_rolls_back_earlier_shards():
    fleet = two_shard_fleet()
    # Shard 1 alone already holds a query of that name, so it refuses
    # the fleet-wide registration after shard 0 has accepted it.
    fleet.shards[1].execute(FIGURE_1_AQ)
    with pytest.raises(RegistrationError, match="already registered"):
        fleet.create_aq(FIGURE_1_AQ, priority=1)
    # The shard that had already accepted must not keep a half-fleet
    # registration.
    assert "snapshot" not in fleet.shards[0].continuous.queries


# ----------------------------------------------------------------------
# Request routing
# ----------------------------------------------------------------------
def _request(candidates, request_id="x1"):
    return ActionRequest(action_name="photo",
                         arguments={"target": Point(5.0, 3.0),
                                    "directory": "photos"},
                         candidates=tuple(candidates),
                         request_id=request_id)


def test_route_picks_the_plurality_owner_and_restricts_candidates():
    fleet = two_shard_fleet()
    index, owned = fleet.route(
        _request(["cam00a", "cam00b", "cam01a"]))
    assert index == 0
    assert owned == ("cam00a", "cam00b")


def test_route_breaks_ownership_ties_to_the_lowest_shard():
    fleet = two_shard_fleet()
    index, owned = fleet.route(_request(["cam01a", "cam00a"]))
    assert index == 0
    assert owned == ("cam00a",)


def test_route_refuses_requests_without_candidates():
    fleet = two_shard_fleet()
    with pytest.raises(ShardingError, match="no candidate"):
        fleet.route(_request([]))


def test_submit_batch_splits_across_shards_and_merges_completions(
        build_fleet):
    fleet = build_fleet()
    fleet.start()
    routed = [fleet.submit(request) for request in (
        _request(["cam00a", "cam00b"], "b1"),
        _request(["cam01a", "cam01b"], "b2"),
        _request(["cam00a", "cam01a", "cam01b"], "b3"),
    )]
    assert routed == [0, 1, 1]
    fleet.run(until=30.0)
    completed = {request.request_id: request
                 for request in fleet.completed_requests}
    assert set(completed) == {"b1", "b2", "b3"}
    assert completed["b1"].state.value == "serviced"
    assert completed["b3"].assigned_device in ("cam01a", "cam01b")
    # The fleet-wide completion merge is ordered by completion time.
    times = [request.completed_at
             for request in fleet.completed_requests]
    assert times == sorted(times)


# ----------------------------------------------------------------------
# Lifecycle and the lockstep run loop
# ----------------------------------------------------------------------
def test_start_is_once_and_run_advances_every_shard_clock(build_fleet):
    fleet = build_fleet()
    fleet.start()
    with pytest.raises(ShardingError, match="already started"):
        fleet.start()

    def clocks():
        return [stats["virtual_time"]
                for stats in fleet.shard_statistics()]

    fleet.run(until=12.5)
    assert clocks() == [12.5, 12.5]
    # A second run with a later deadline continues from where the
    # lockstep left off.
    fleet.run(until=20.0)
    assert clocks() == [20.0, 20.0]


def test_per_shard_state_is_refused_on_multi_shard_fleets():
    fleet = two_shard_fleet()
    for attribute in ("env", "tracer", "obs"):
        with pytest.raises(ShardingError, match="per-shard"):
            getattr(fleet, attribute)


def shard_host() -> ShardHost:
    """One bare shard, hosted in this process."""
    return ShardHost(EngineConfig(), seed=0)


def test_run_lockstep_validates_its_inputs():
    with pytest.raises(SimulationError, match="quantum"):
        run_lockstep([shard_host()], 10.0, quantum=0.0)
    with pytest.raises(SimulationError, match="at least one"):
        run_lockstep([], 10.0, quantum=None)
    host = shard_host()
    host.engine.env.run(until=5.0)
    with pytest.raises(SimulationError, match="already at"):
        run_lockstep([host], 1.0, quantum=None)


def test_a_multi_shard_fleet_refuses_to_run_to_nan():
    # It used to return NaN with every shard clock still at 0.0, where
    # a plain engine and a one-shard fleet refuse the call.
    fleet = two_shard_fleet()
    fleet.start()
    with pytest.raises(SimulationError, match="NaN"):
        fleet.run(math.nan)
    assert [fleet.shard(index).env.now for index in range(2)] == [0.0, 0.0]


def test_run_lockstep_refuses_to_run_to_nan():
    host = shard_host()
    with pytest.raises(SimulationError, match="NaN"):
        run_lockstep([host], math.nan, quantum=1.0)
    assert host.engine.env.now == 0.0


@pytest.mark.parametrize("quantum", [math.nan, math.inf])
def test_run_lockstep_refuses_a_quantum_not_positive_and_finite(quantum):
    # A NaN quantum used to return ``until`` with the clock unmoved.
    host = shard_host()
    with pytest.raises(SimulationError, match="quantum"):
        run_lockstep([host], 10.0, quantum=quantum)
    assert host.engine.env.now == 0.0


def test_run_lockstep_tolerates_runtimes_ahead_of_the_floor():
    ahead, behind = shard_host(), shard_host()
    ahead.engine.env.run(until=7.0)
    assert run_lockstep([ahead, behind], 10.0, quantum=2.0) == 10.0
    assert ahead.engine.env.now == 10.0
    assert behind.engine.env.now == 10.0


def test_a_run_to_the_instant_the_fleet_is_at_drains_what_is_due():
    # As a plain engine and a 1-shard fleet do (two events each). The
    # round loop used to open no round for a deadline already reached,
    # so a 2-shard fleet processed no event at t=0.
    fleet = two_shard_fleet()
    fleet.start()
    assert fleet.run(until=0.0) == 0.0
    assert [fleet.shard(index).env.events_processed
            for index in range(2)] == [2, 2]


# ----------------------------------------------------------------------
# What couples shards decides the rounds
# ----------------------------------------------------------------------
def test_overload_off_shards_are_independent_of_the_round_size():
    # The licence for running a ledger-free fleet in one round: its
    # shards share nothing, so how often they meet at a barrier cannot
    # show in any shard's dump. run_lockstep is driven directly, so the
    # property is the engine's, whatever quantum the facade picks.
    dumps = []
    for quantum in (0.1, 1.0, None):
        fleet = region_fleet_scenario(3, observability=True,
                                      run_until=0.0)
        assert fleet.ledger is None
        run_lockstep(fleet.handles, 33.0, quantum=quantum)
        assert fleet.statistics()["requests_serviced"] == 3
        dumps.append([json.dumps(dump, sort_keys=True)
                      for dump in fleet.shard_dumps()])
    assert dumps[0] == dumps[1] == dumps[2]


def test_ledger_free_fleet_takes_one_round_per_run(build_fleet):
    fleet = build_fleet()
    assert fleet.ledger is None
    counter = fleet.handles[0] = RoundTap(fleet.handles[0])
    fleet.start()
    fleet.run(until=12.5)
    fleet.run(until=20.0)
    assert counter.rounds == 2


def test_ledger_coupled_fleet_still_steps_by_the_quantum(build_fleet):
    fleet = build_fleet(overload=True)
    assert fleet.ledger is not None
    counter = fleet.handles[0] = RoundTap(fleet.handles[0])
    fleet.start()
    fleet.run(until=12.5)
    assert counter.rounds == math.ceil(12.5 / SHARD_QUANTUM)


# ----------------------------------------------------------------------
# Fleet-wide capacity accounting
# ----------------------------------------------------------------------
def test_shards_share_one_capacity_ledger_under_overload():
    # The shards share the fleet's commitments through the barrier, not
    # one ledger object (DESIGN decision 30).
    fleet = two_shard_fleet(overload=True)
    first = fleet.shards[0].overload.admission.capacity
    second = fleet.shards[1].overload.admission.capacity
    fleet.start()
    # Synced at start: the budget counts the whole fleet's devices.
    budget = 6 * CAPACITY_HORIZON * UTILIZATION_CAP
    assert first.available(0.0) == second.available(0.0) == budget
    first.commit(0.0, 40.0)
    assert first.available(0.0) == budget - 40.0
    assert second.available(0.0) == budget        # not before a barrier
    fleet.run(until=SHARD_QUANTUM)                # one round, one barrier
    assert second.available(0.0) == budget - 40.0
    assert fleet.ledger.committed() == {0: 40.0}


def test_capacity_ledger_windows_are_order_independent():
    fleet = two_shard_fleet(overload=True)
    ledger = fleet.shards[0].overload.admission.capacity
    budget = ledger.available(0.0)
    later = 1.5 * CAPACITY_HORIZON             # in window 1
    # Shard clocks advance independently: a commit to window 1 must
    # survive a read at window 0 by a slower shard.
    ledger.commit(later, 5.0)
    assert ledger.available(2.0) == budget     # window 0 untouched
    assert ledger.available(later) == budget - 5.0
    ledger.commit(2.0, 10.0)
    assert ledger.available(later) == budget - 5.0   # window 1 unaffected
    assert ledger.available(8.0) == budget - 10.0


def test_shard_ledgers_resync_when_devices_join():
    fleet = two_shard_fleet(populate=False, overload=True)
    fleet.add_device("cam00a", DeviceSpec(
        PanTiltZoomCamera, "cam00a", Point(0, 0)))
    fleet.start()
    fleet.add_device("cam01a", DeviceSpec(
        PanTiltZoomCamera, "cam01a", Point(1000, 0)))
    per_device = CAPACITY_HORIZON * UTILIZATION_CAP
    ledgers = [shard.overload.admission.capacity for shard in fleet.shards]
    # Synced at start, when the fleet had one device.
    assert [ledger.available(0.0) for ledger in ledgers] == [per_device] * 2
    # A submit after a join syncs the count before it admits.
    fleet.submit(_request(["cam00a"], "grow1"))
    assert [ledger.available(CAPACITY_HORIZON)
            for ledger in ledgers] == [2 * per_device] * 2
    unfolded = ledgers[0].unsynced()
    assert list(unfolded) == [0]
    # Another join resizes without dropping that commit, and the next
    # barrier folds it in for every shard.
    fleet.add_device("cam00b", DeviceSpec(
        PanTiltZoomCamera, "cam00b", Point(20, 0), facing=180.0))
    fleet.run(until=SHARD_QUANTUM)
    assert fleet.ledger.committed() == unfolded
    assert [ledger.available(0.0) for ledger in ledgers] == [
        3 * per_device - unfolded[0]] * 2


class CommitTap:
    """A handle that keeps every round's result, in round order."""

    def __init__(self, shard) -> None:
        self.shard = shard
        self.results = []

    def finish_round(self):
        result = self.shard.finish_round()
        self.results.append(result)
        return result

    def __getattr__(self, name):
        return getattr(self.shard, name)


def test_coupled_storm_overcommits_only_by_the_other_shards_round():
    """The over-commit bound of DESIGN decision 30, window by window.

    Within a round each shard admits against the same synced base plus
    its own commits, so a window ends a round at most over budget by
    what the *other* shards committed to it in that round — and once
    over, admits no more tier-1 work.
    """
    fleet = coupled_storm_scenario(run_until=0.0)
    taps = fleet.handles[:] = [CommitTap(handle)
                               for handle in fleet.handles]
    fleet.run(until=STORM_UNTIL)
    budget = 6 * CAPACITY_HORIZON * UTILIZATION_CAP
    epsilon = 1e-9
    base = {}
    over_budget = set()
    for rounds in zip(*(tap.results for tap in taps)):
        commits = [result.commits for result in rounds]
        for window in set().union(*commits):
            own = [shard.get(window, 0.0) for shard in commits]
            before = base.get(window, 0.0)
            for seconds in own:
                assert before + seconds <= budget + epsilon
            total = before + own[0] + own[1]
            others = min(sum(own) - seconds for seconds in own)
            assert total - budget <= others + epsilon
            if total > budget:
                over_budget.add(window)
        for shard in commits:
            for window, seconds in shard.items():
                base[window] = base.get(window, 0.0) + seconds
    # The fleet ledger folded exactly what the rounds shipped, and the
    # storm did push a window past its budget.
    assert base == fleet.ledger.committed()
    assert over_budget
    for stats in fleet.shard_statistics():
        assert stats["overload_rejected_by_reason"][REASON_CAPACITY] > 0


def test_single_shard_fleet_keeps_per_engine_ledgers():
    config = EngineConfig(shards=1, overload=True)
    fleet = ShardedEngine(config=config, seed=0)
    # No rewiring on the delegation path: byte-identity with a plain
    # engine includes its private ledger.
    plain = AortaEngine(config=EngineConfig(overload=True))
    assert type(fleet.shards[0].overload.admission.capacity) \
        is type(plain.overload.admission.capacity)


def test_single_shard_fleet_keeps_the_engines_run_and_completion_log():
    """A 1-shard fleet runs and logs completions as its engine does:
    ``run`` through the round loop, the completion log through the one
    pass-through the general path would change (DESIGN decision 19)."""
    fleet = ShardedEngine(config=EngineConfig(shards=1), seed=0)
    for name in ("cam1", "cam2"):
        fleet.add_device(name, DeviceSpec(
            PanTiltZoomCamera, name, Point(0, 0))).go_offline()
    fleet.start()
    # A plain engine run to the instant it is at drains what is due at
    # that instant; so does the round loop, which opens at least one
    # round.
    fleet.run(until=0.0)
    assert fleet.env.events_processed > 0
    # Twelve requests fail at one instant (no camera answers the
    # probe): the engine logs them as they ended, the fleet merge would
    # order them by id ("r10" before "r2").
    ids = [f"r{n}" for n in range(1, 13)]
    for request_id in ids:
        fleet.submit(_request(["cam1", "cam2"], request_id))
    fleet.run(until=30.0)
    assert [request.request_id
            for request in fleet.completed_requests] == ids


# ----------------------------------------------------------------------
# Aggregated reporting
# ----------------------------------------------------------------------
def test_fleet_statistics_aggregate_sum_max_and_width(build_fleet):
    fleet = build_fleet()
    fleet.execute(FIGURE_1_AQ)
    for index in range(2):
        fleet.inject(f"mote{index:02d}",
                     SensorStimulus("accel_x", start=2.0 + index,
                                    duration=3.0, magnitude=850.0))
    fleet.start()
    fleet.run(until=30.0)
    stats = fleet.statistics()
    per_shard = fleet.shard_statistics()
    assert stats["shards"] == 2
    assert stats["devices"] == sum(s["devices"] for s in per_shard) == 6
    assert stats["requests_serviced"] == sum(
        s["requests_serviced"] for s in per_shard) == 2
    assert stats["virtual_time"] == max(
        s["virtual_time"] for s in per_shard) == 30.0
    assert stats["queries"] == 2
    # A ratio is recomputed from the summed counts, never summed.
    assert 0.0 < stats["pool_hit_rate"] <= 1.0
    assert stats["pool_hit_rate"] == stats["pool_hits"] / (
        stats["pool_hits"] + stats["pool_misses"])


def test_device_report_is_the_disjoint_union(build_fleet):
    fleet = build_fleet()
    report = fleet.device_report()
    assert len(report) == 6
    assert set(report) == {f"cam{i:02d}{side}" for i in range(2)
                           for side in "ab"} \
        | {"mote00", "mote01"}


# ----------------------------------------------------------------------
# The same facade contract on a worker fleet
# ----------------------------------------------------------------------
class TestOnThreadWorkers:
    """Every facade-only test above, again over worker pipes.

    The thread double exercises the whole worker path — pickled
    commands, replayed construction, rehydrated errors — without
    paying a process spawn per shard.
    """

    @pytest.fixture
    def transport(self):
        with thread_workers():
            yield WORKERS


for _contract in (
        test_factory_id_mismatch_is_refused,
        test_unplaced_device_is_refused_loudly,
        test_inject_refuses_devices_without_stimulus_support,
        test_drop_aq_fans_out_and_returns_none,
        test_snapshot_select_needs_a_single_shard,
        test_explain_describes_the_plan_without_registering,
        test_submit_batch_splits_across_shards_and_merges_completions,
        test_start_is_once_and_run_advances_every_shard_clock,
        test_ledger_free_fleet_takes_one_round_per_run,
        test_ledger_coupled_fleet_still_steps_by_the_quantum,
        test_fleet_statistics_aggregate_sum_max_and_width,
        test_device_report_is_the_disjoint_union):
    setattr(TestOnThreadWorkers, _contract.__name__,
            staticmethod(_contract))
