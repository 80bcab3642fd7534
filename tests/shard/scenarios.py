"""Sharded mirrors of the canonical golden-harness scenarios.

Each builder replays a scenario from :mod:`tests.obs.scenarios` through
:class:`~repro.shard.ShardedEngine` with the *same device construction
order, the same statement order and the same run calls* — so a 1-shard
fleet must produce a normalized dump byte-identical to the plain
engine's, and any coordinator overhead on the delegation path fails
the equivalence suite immediately.

``region_fleet_scenario`` is the genuinely sharded workload: N regions
of (two cameras + one sensor mote) under explicit region placement,
with one staggered stimulus per region — every shard detects and
services exactly its own region's events. ``coupled_storm_scenario``
floods two such regions past the fleet's capacity, so the shards'
admissions couple through the barrier-synced ledger.
"""

from __future__ import annotations

from typing import Optional

from repro import (
    DeviceSpec,
    PanTiltZoomCamera,
    Point,
    RegionPlacement,
    SensorMote,
    SensorStimulus,
    ShardedEngine,
)
from repro.actions.request import ActionRequest
from repro.devices.failures import FailureInjector, OutageSpec
from tests.obs.scenarios import _config

FIGURE_1_AQ = '''CREATE AQ snapshot AS
    SELECT photo(c.ip, s.loc, "photos/admin")
    FROM sensor s, camera c
    WHERE s.accel_x > 500 AND coverage(c.id, s.loc)'''


def sharded_snapshot_scenario(observability: Optional[bool] = None,
                              **config_kwargs) -> ShardedEngine:
    """The Figure 1 snapshot through a 1-shard fleet.

    Mirrors :func:`tests.obs.scenarios.snapshot_scenario` call for
    call; extra keyword arguments pass through to
    :class:`~repro.EngineConfig` (e.g. ``time_scale``).
    """
    config = _config(observability, **config_kwargs)
    fleet = ShardedEngine(config=config, seed=0)
    fleet.add_device("cam1", lambda env: PanTiltZoomCamera(
        env, "cam1", Point(0, 0), ip_address="10.0.0.1"))
    fleet.add_device("cam2", lambda env: PanTiltZoomCamera(
        env, "cam2", Point(20, 0), facing=180.0, ip_address="10.0.0.2"))
    fleet.add_device("mote1", lambda env: SensorMote(
        env, "mote1", Point(5, 3), noise_amplitude=0.0))
    fleet.execute(FIGURE_1_AQ)
    fleet.inject("mote1", SensorStimulus("accel_x", start=2.0,
                                         duration=3.0, magnitude=850.0))
    fleet.start()
    fleet.run(until=30.0)
    return fleet


def sharded_continuous_outage_scenario(
    observability: Optional[bool] = None,
    **config_kwargs,
) -> ShardedEngine:
    """The continuous-outage workload through a 1-shard fleet.

    Mirrors :func:`tests.obs.scenarios.continuous_outage_scenario`:
    the workload process, dispatcher start and outage injections run
    against the single shard's runtime exactly as the plain scenario
    runs them against its environment.
    """
    from repro import HealthPolicy, RetryPolicy
    config = _config(
        observability,
        probing=False,
        **config_kwargs,
        retry=RetryPolicy(max_attempts=2, failover=True),
        health=HealthPolicy(failure_threshold=2, quarantine_seconds=10.0,
                            backoff_factor=2.0, quarantine_max=40.0),
        lock_lease_seconds=30.0,
    )
    fleet = ShardedEngine(config=config, seed=0)
    cameras = []
    for index in range(3):
        camera = fleet.add_device(
            f"cam{index + 1}",
            lambda env, index=index: PanTiltZoomCamera(
                env, f"cam{index + 1}", Point(15.0 * index, 0.0),
                facing=0.0, view_half_angle=170.0, view_range=1000.0))
        cameras.append(camera)
    candidates = tuple(camera.device_id for camera in cameras)

    shard = fleet.shard(0)
    env = fleet.env
    action = shard.actions.get("photo")
    operator = shard.dispatcher.operator_for(action)

    def workload(env):
        serial = 0
        for tick in range(1, 21):           # t = 2, 4, ..., 40
            submit_at = 2.0 * tick
            delay = submit_at - env.now
            if delay > 0:
                yield env.timeout(delay)
            serial += 1
            operator.submit(ActionRequest(
                action_name="photo",
                arguments={"target": Point(10.0 + tick, 5.0),
                           "directory": "photos"},
                created_at=env.now,
                candidates=candidates,
                request_id=f"r{serial:02d}",
            ))

    env.process(workload(env))
    shard.dispatcher.start()

    injector = FailureInjector(env)
    injector.schedule_outage(cameras[0], OutageSpec(
        device_id="cam1", start=8.0, duration=16.0, kind="offline"))
    injector.schedule_outage(cameras[1], OutageSpec(
        device_id="cam2", start=14.0, duration=6.0, kind="crash"))

    fleet.run(until=70.0)
    return fleet


class RoundTap:
    """A handle that reports the rounds submitted to its shard.

    Substituted at ``fleet.handles[i]``: it counts ``begin_round``
    calls and invokes ``on_begin`` after each one went out; everything
    else reaches the wrapped handle untouched.
    """

    def __init__(self, shard, on_begin=None) -> None:
        self.shard = shard
        self.rounds = 0
        self.on_begin = on_begin

    def begin_round(self, deadline) -> None:
        self.rounds += 1
        self.shard.begin_round(deadline)
        if self.on_begin is not None:
            self.on_begin()

    def __getattr__(self, name):
        return getattr(self.shard, name)


# ----------------------------------------------------------------------
# The genuinely sharded workload
# ----------------------------------------------------------------------
def region_layout(n_regions: int):
    """The region map of the N-region fleet: one region per shard."""
    return {
        f"region{index:02d}": [f"cam{index:02d}a", f"cam{index:02d}b",
                               f"mote{index:02d}"]
        for index in range(n_regions)
    }


def _add_regions(fleet: ShardedEngine, n_regions: int) -> None:
    for index in range(n_regions):
        tag = f"{index:02d}"
        # Regions are geometrically disjoint (1 km apart) so coverage —
        # and therefore candidate sets — is region-local even when one
        # shard owns every region: the serviced work must not depend on
        # the sharding.
        offset = 1000.0 * index
        fleet.add_device(f"cam{tag}a", DeviceSpec(
            PanTiltZoomCamera, f"cam{tag}a", Point(offset, 0)))
        fleet.add_device(f"cam{tag}b", DeviceSpec(
            PanTiltZoomCamera, f"cam{tag}b", Point(offset + 20, 0),
            facing=180.0))
        fleet.add_device(f"mote{tag}", DeviceSpec(
            SensorMote, f"mote{tag}", Point(offset + 5, 3),
            noise_amplitude=0.0))


def region_fleet_scenario(n_regions: int,
                          observability: Optional[bool] = None,
                          *, shards: Optional[int] = None,
                          run_until: Optional[float] = None,
                          **config_kwargs) -> ShardedEngine:
    """N Figure-1 regions under region placement, one stimulus each.

    ``shards`` defaults to ``n_regions`` (one region per shard); pass
    ``shards=1`` to run the identical workload on a single shard for
    serviced-set equivalence checks. Region devices are disjoint, so
    the serviced set must not depend on the sharding. Device factories
    are :class:`~repro.DeviceSpec` values, so the same builder drives
    serial fleets and parallel ones (``parallel=True`` in
    ``config_kwargs``) — parallel workers replay the specs over their
    pipes.
    """
    n_shards = n_regions if shards is None else shards
    regions = region_layout(n_regions)
    if n_shards == n_regions:
        placement = RegionPlacement.from_regions(regions)
    else:
        assignments = {
            device_id: index % n_shards
            for index, name in enumerate(sorted(regions))
            for device_id in regions[name]
        }
        placement = RegionPlacement(n_shards, assignments)
    config = _config(observability, shards=n_shards, **config_kwargs)
    fleet = ShardedEngine(config=config, placement=placement, seed=0)
    _add_regions(fleet, n_regions)
    fleet.execute(FIGURE_1_AQ)
    for index in range(n_regions):
        fleet.inject(f"mote{index:02d}",
                     SensorStimulus("accel_x", start=2.0 + index,
                                    duration=3.0, magnitude=850.0))
    fleet.start()
    fleet.run(until=run_until if run_until is not None
              else 30.0 + n_regions)
    return fleet


#: The storm's shape: this many tier-1 copies of the Figure 1 AQ per
#: shard, each firing on every one of this many one-second pulses, two
#: seconds apart, at each region's mote. At ~0.36 estimated seconds a
#: photo that is ~86 s of work per 10 s window (2 shards x 5 pulses x
#: 24 requests) against a 54 s budget (six devices x 10 s x 0.9).
STORM_QUERIES = 24
STORM_PULSES = 8
STORM_UNTIL = 28.0


def coupled_storm_scenario(*, run_until: float = STORM_UNTIL,
                           **config_kwargs) -> ShardedEngine:
    """Two regions, overload control on, capacity binding on both.

    Every admission happens inside a round, on the shard that detected
    the event, so the fleet's outcome rests on the barrier-synced
    capacity ledger. Pass ``run_until=0.0`` to get the started fleet
    before its first round.
    """
    fleet = ShardedEngine(
        config=_config(None, shards=2, overload=True, **config_kwargs),
        placement=RegionPlacement.from_regions(region_layout(2)), seed=0)
    _add_regions(fleet, 2)
    for query in range(STORM_QUERIES):
        fleet.create_aq(
            FIGURE_1_AQ.replace("snapshot", f"storm{query:02d}"),
            priority=1)
    for index in range(2):
        for pulse in range(STORM_PULSES):
            fleet.inject(f"mote{index:02d}", SensorStimulus(
                "accel_x", start=2.0 + 0.5 * index + 2.0 * pulse,
                duration=1.0, magnitude=850.0))
    fleet.start()
    fleet.run(until=run_until)
    return fleet
