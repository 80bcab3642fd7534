"""The four workloads: seeded generators of fleets, AQs and band events.

Every workload is described to the harness as one :class:`Job`: the
devices, the AQs, the pre-scheduled ``SensorStimulus`` list, and the
reference answer — which ``(AQ, mote, slot)`` events those stimuli must
produce, each stamped with its creation time at the generator. The
engine only ever sees the devices, the SQL and the stimuli.

Randomness is stratified: a seed permutes fixed grids (which mote,
which AQ, which phase of the poll cycle) instead of drawing free
values, so two seeds give different inputs with the same distribution
and the virtual-time metrics stay comparable across seeds.

The load is open-loop in virtual time: stimuli fire on their schedule
whatever the engine does. ``seconds`` scales the number of events (the
``EVENTS_PER_SECOND`` rates were calibrated on a 2-core host so that
``engine.run()`` takes about that many wall seconds); fleets and AQ
populations do not scale, so ``setup_s`` is independent of it.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import (
    DeviceSpec,
    HealthPolicy,
    MobilePhone,
    OverloadPolicy,
    PanTiltZoomCamera,
    Point,
    RetryPolicy,
    SensorMote,
    SensorStimulus,
)

WORKLOADS = ("match_heavy", "dispatch_heavy", "mixed_faulty",
             "fleet_sharded")

#: Injected events per wall second of ``run()`` on the reference host.
#: fleet_sharded takes dispatch_heavy's rate: same seed, same events.
EVENTS_PER_SECOND = {
    "match_heavy": 100,
    "dispatch_heavy": 100,
    "mixed_faulty": 150,
}

#: Idle mote readings (repro.devices.sensor.BASELINES); a reading is
#: exactly ``baseline + magnitude`` because motes are built noise-free.
BASELINES = {"accel_x": 0.0, "accel_y": 0.0, "temperature": 22.0,
             "light": 300.0}

#: Seconds a stimulus stays active. The mote radio loses 2 % of
#: exchanges, each costing the scan a timeout and a retry, so a poll
#: cycle is 1.5-4 s and a row can be skipped outright; sixteen seconds
#: span four reads of every mote, which makes detection certain on a
#: fault-free fleet.
STIMULUS_SECONDS = 16.0
#: A request may be emitted this long after its stimulus ended (the
#: scan that read it is still collecting other motes' rows).
DETECT_SLACK = 4.0
#: Seconds between stimulus starts on one mote: the stimulus, then a
#: quiet gap long enough for a read to clear the edge-trigger memory.
MOTE_PERIOD = 32.0
#: Seconds over which one dispatch_heavy burst's starts are spread:
#: one nominal poll cycle (1 s interval + ~2.4 s scan of 64 motes).
BURST_WINDOW = 3.4
#: Service deadline of every mixed_faulty request class; it also caps
#: the latency tail, which keeps p99 steady across seeds.
DEADLINE_SECONDS = 12.0
#: query_id of directly submitted storm requests.
STORM = "storm"

EventKey = Tuple[Any, ...]


@dataclass(frozen=True)
class Band:
    """One AQ's event predicate over a single sensory attribute."""

    attribute: str
    low: float
    high: float
    #: "closed" (>= <=), "open" (> <), "point" (=), "above" (> low,
    #: open-ended) or "residual" (an open band OR-ed with a never-true
    #: arm, so it is non-indexable).
    shape: str

    def holds(self, value: float) -> bool:
        if self.shape == "closed":
            return self.low <= value <= self.high
        if self.shape == "point":
            return value == self.low
        return self.low < value < self.high

    def sql(self) -> str:
        column = f"s.{self.attribute}"
        if self.shape == "closed":
            return (f"{column} >= {self.low!r} AND {column} <= "
                    f"{self.high!r}")
        if self.shape == "point":
            return f"{column} = {self.low!r}"
        if self.shape == "above":
            return f"{column} > {self.low!r}"
        band = f"{column} > {self.low!r} AND {column} < {self.high!r}"
        if self.shape == "residual":
            return f"(({band}) OR s.accel_y > 50000.0)"
        return band


@dataclass(frozen=True)
class AQ:
    """One registered action-embedded continuous query."""

    name: str
    band: Band
    #: "photo" (cost-optimal camera) or "sendphoto" (every phone).
    action: str = "photo"
    priority: int = 1
    deadline_seconds: Optional[float] = None

    def sql(self) -> str:
        if self.action == "sendphoto":
            return (f'CREATE AQ {self.name} AS SELECT sendphoto(p.number, '
                    f'"photos/{self.name}.jpg") FROM sensor s, phone p '
                    f'WHERE {self.band.sql()}')
        return (f'CREATE AQ {self.name} AS SELECT photo(c.ip, s.loc, '
                f'"photos/{self.name}") FROM sensor s, camera c '
                f'WHERE {self.band.sql()} AND coverage(c.id, s.loc)')


@dataclass
class Job:
    """Everything one repetition needs, and the answer it must give."""

    name: str
    #: EngineConfig keyword overrides on top of the profile flags.
    config: Dict[str, Any]
    devices: List[Tuple[str, DeviceSpec]]
    aqs: List[AQ]
    #: (x, y) -> mote id, to read the event's mote off a photo target.
    mote_at: Dict[Tuple[float, float], str]
    stimuli: List[Tuple[str, SensorStimulus]] = field(default_factory=list)
    #: Reference answer: event key -> creation time at the generator.
    #: Keys are (aq, mote, slot) — plus the phone for fan-out AQs — or
    #: (STORM, request id) for directly submitted requests.
    events: Dict[EventKey, float] = field(default_factory=dict)
    #: Virtual time at which run() stops (last stimulus + drain).
    horizon: float = 0.0
    #: Requests one detection of a sendphoto AQ fans out to (phones).
    fan_out: int = 0
    #: device id -> shard, for multi-shard jobs.
    placement: Optional[Dict[str, int]] = None
    #: (virtual time, AQ names to drop, AQs to re-register), in order.
    churn: List[Tuple[float, List[str], List[AQ]]] = field(
        default_factory=list)
    #: Schedules faults and storms on the built fleet before start();
    #: a job without one must service every injected event.
    arm: Optional[Callable[[Any, "Job"], None]] = None
    #: AQ name -> sorted [(start, mote, slot)], to map requests back.
    spans: Dict[str, List[Tuple[float, str, int]]] = field(
        default_factory=dict)
    #: Storm requests the arm hook created, by request id.
    storm_requests: Dict[str, Any] = field(default_factory=dict)

    def event_of(self, request: Any) -> Optional[EventKey]:
        """The injected event a completed request answers, or None."""
        if request.query_id == STORM:
            return (STORM, request.request_id)
        spans = self.spans.get(request.query_id, ())
        target = request.arguments.get("target")
        mote = (self.mote_at.get((target.x, target.y))
                if target is not None else None)
        at = request.created_at
        # "~" sorts after every mote id: spans starting exactly at `at`.
        index = bisect.bisect_right(spans, (at, "~"))
        for start, span_mote, slot in reversed(spans[:index]):
            if at - start > STIMULUS_SECONDS + DETECT_SLACK:
                break
            if mote is None or mote == span_mote:
                key: EventKey = (request.query_id, span_mote, slot)
                if target is None:  # fan-out: one sub-event per phone
                    key += (request.candidates[0],)
                return key
        return None


# ----------------------------------------------------------------------
# Shared builders
# ----------------------------------------------------------------------
def _cameras(count: int) -> List[Tuple[str, DeviceSpec]]:
    # Wide-range, facing +x: every mote (placed at larger x) is covered.
    return [(f"cam{k:03d}", DeviceSpec(
        PanTiltZoomCamera, f"cam{k:03d}",
        Point(0.01 * k, -20.0 + 40.0 * k / count), facing=0.0,
        view_half_angle=170.0, view_range=1e9)) for k in range(count)]


def _motes(count: int) -> Tuple[List[Tuple[str, DeviceSpec]],
                                Dict[Tuple[float, float], str]]:
    """Noise-free motes on a grid, and the (x, y) -> mote id map."""
    motes, mote_at = [], {}
    for k in range(count):
        x, y = 40.0 + 5.0 * (k % 8), -35.0 + 10.0 * (k // 8)
        motes.append((f"mote{k:03d}", DeviceSpec(
            SensorMote, f"mote{k:03d}", Point(x, y), noise_amplitude=0.0)))
        mote_at[(x, y)] = f"mote{k:03d}"
    return motes, mote_at


def _phases(count: int, span: float, rng: random.Random) -> List[float]:
    """``count`` offsets evenly covering [0, span), in seeded order."""
    grid = [span * (k + 0.5) / count for k in range(count)]
    rng.shuffle(grid)
    return grid


def _deck(groups: List[List[AQ]], count: int,
          rng: random.Random) -> List[AQ]:
    """``count`` targets in seeded order, each group at its exact share.

    Which AQs fire changes with the seed; how many of each kind does
    not, so the mix of cheap and expensive events is the same run.
    """
    total = sum(len(group) for group in groups)
    deck: List[AQ] = []
    for group in groups:
        share = round(count * len(group) / total)
        repeats = -(-share // len(group))
        deck += rng.sample(group * repeats, share)
    largest = max(groups, key=len)
    while len(deck) < count:  # shares rounded down
        deck.append(rng.choice(largest))
    rng.shuffle(deck)
    return deck[:count]


class _Reference:
    """Which registered AQs a reading fires: the generator's own answer."""

    def __init__(self, aqs: List[AQ]) -> None:
        self._by_attribute: Dict[str, List[AQ]] = {}
        for aq in aqs:
            self._by_attribute.setdefault(aq.band.attribute, []).append(aq)
        self._lows: Dict[str, List[float]] = {}
        self._width: Dict[str, float] = {}
        for attribute, group in self._by_attribute.items():
            group.sort(key=lambda aq: aq.band.low)
            self._lows[attribute] = [aq.band.low for aq in group]
            self._width[attribute] = max(aq.band.high - aq.band.low
                                         for aq in group)

    def fired(self, attribute: str, value: float) -> List[AQ]:
        if attribute not in self._by_attribute:
            return []
        lows = self._lows[attribute]
        lower = bisect.bisect_left(lows, value - self._width[attribute])
        upper = bisect.bisect_right(lows, value)
        return [aq for aq in self._by_attribute[attribute][lower:upper]
                if aq.band.holds(value)]


def _schedule(job: Job, reference: _Reference,
              plan: List[Tuple[float, str, int, AQ, float]],
              absent: Callable[[str, float], bool] = lambda name, at: False,
              ) -> None:
    """Turn (start, mote, slot, target AQ, value) into stimuli + events.

    ``absent(name, start)`` says whether an AQ is dropped around that
    time; the reference answer leaves those out.
    """
    for start, mote, slot, target, value in plan:
        attribute = target.band.attribute
        magnitude = value - BASELINES[attribute]
        job.stimuli.append((mote, SensorStimulus(
            attribute, start=start, duration=STIMULUS_SECONDS,
            magnitude=magnitude)))
        # What the mote will report, in the mote's own arithmetic.
        for aq in reference.fired(attribute,
                                  BASELINES[attribute] + magnitude):
            if absent(aq.name, start):
                continue
            job.spans.setdefault(aq.name, []).append((start, mote, slot))
            if aq.action == "sendphoto":
                for phone in range(job.fan_out):
                    job.events[(aq.name, mote, slot,
                                f"phone{phone:02d}")] = start
            else:
                job.events[(aq.name, mote, slot)] = start
    for spans in job.spans.values():
        spans.sort()


# ----------------------------------------------------------------------
# match_heavy
# ----------------------------------------------------------------------
def _match_heavy(seed: int, seconds: float, smoke: bool) -> Job:
    """Thousands of AQs, few events per poll: matching owns the time.

    The bench_multiquery band mix: 93 % narrow closed temperature
    intervals (neighbours overlap, so a reading fires one or two AQs),
    3 % light points, 3 % open-ended battery bands that never fire but
    must be carried, 1 % non-indexable OR residuals evaluated per row.
    """
    rng = random.Random(seed)
    n_aqs, n_motes, n_cameras = (400, 16, 4) if smoke else (6000, 64, 8)
    aqs: List[AQ] = []
    for i in range(n_aqs):
        kind = i % 100
        if kind < 93:
            low = 100.0 + 0.15 * i
            band = Band("temperature", low, low + 0.2, "closed")
        elif kind < 96:
            band = Band("light", 400.0 + 5.0 * i, 400.0 + 5.0 * i, "point")
        elif kind < 99:
            band = Band("battery", 99.0 + (i % 97) / 100.0,
                        float("inf"), "above")
        else:
            band = Band("accel_x", 600.0 + 2.0 * i, 601.0 + 2.0 * i,
                        "residual")
        aqs.append(AQ(f"aq{i:05d}", band))
    motes, mote_at = _motes(n_motes)
    job = Job(name="match_heavy", config={},
              devices=_cameras(n_cameras) + motes, aqs=aqs,
              mote_at=mote_at)
    n_events = max(8, int(EVENTS_PER_SECOND["match_heavy"] * seconds))
    # Three readings in ten fire two neighbouring intervals, so plan
    # fewer stimuli than events; the reference counts the real number.
    n_stimuli = max(6, int(n_events / 1.3))
    targets = _deck([[aq for aq in aqs if aq.band.shape == shape]
                     for shape in ("closed", "point", "residual")],
                    n_stimuli, rng)
    double = [k % 10 < 3 for k in range(len(targets))]
    rng.shuffle(double)
    # One stimulus per mote per two periods: ~2 stimuli per virtual
    # second over 64 motes, so a poll finds a handful of requests.
    rate = n_motes / (2.0 * MOTE_PERIOD)
    order = list(mote_at.values())
    rng.shuffle(order)
    phases = _phases(len(targets), 1.0 / rate, rng)
    plan = []
    for k, target in enumerate(targets):
        band = target.band
        if band.shape == "closed":
            # 0.1 is this AQ alone; 0.175 also lies in the next band.
            value = band.low + (0.175 if double[k] else 0.1)
        elif band.shape == "point":
            value = band.low
        else:
            value = band.low + 0.5
        plan.append((3.0 + k / rate + phases[k],
                     order[k % len(order)], k, target, value))
    _schedule(job, _Reference(aqs), plan)
    job.horizon = 3.0 + len(targets) / rate + STIMULUS_SECONDS + 15.0
    return job


# ----------------------------------------------------------------------
# dispatch_heavy / fleet_sharded
# ----------------------------------------------------------------------
def _dispatch_heavy(seed: int, seconds: float, smoke: bool,
                    name: str = "dispatch_heavy", shards: int = 1) -> Job:
    """Eight AQs, the whole camera fleet as every request's candidates.

    Bursts: the motes form two groups that take turns, one burst every
    16 s; 24 of a group's 32 motes fire within one nominal poll cycle,
    so one or two polls pick the burst up as batches of 10-24 requests
    x every camera, and candidate evaluation, probing, SRFAE, the cost
    oracle and locks own the time. Starts inside a burst cover the
    cycle evenly, and ~46 bursts sample ~90 scans: the scan a burst
    lands in sets its latency (radio timeouts make scans 1.5-4 s), so
    fewer, larger bursts would make the percentiles seed-dependent.
    """
    rng = random.Random(seed)
    n_cameras, n_motes, burst = (48, 16, 6) if smoke else (200, 64, 24)
    aqs = [AQ(f"burst{k}", Band("accel_x", 500.0 + 100.0 * k,
                                600.0 + 100.0 * k, "open"))
           for k in range(8)]
    motes, mote_at = _motes(n_motes)
    cameras = _cameras(n_cameras)
    job = Job(name=name, config={}, devices=cameras + motes, aqs=aqs,
              mote_at=mote_at)
    if shards > 1:
        # Interleaved regions: each shard owns every other camera and
        # mote, so both workers see the same load in every burst.
        job.placement = {device_id: k % shards
                         for group in (cameras, motes)
                         for k, (device_id, _spec) in enumerate(group)}
        job.config = {"shards": shards, "parallel": True,
                      "parallel_backend": "process"}
    n_events = max(burst, int(EVENTS_PER_SECOND["dispatch_heavy"] * seconds))
    n_bursts = max(1, round(n_events / burst))
    plan = []
    for b in range(n_bursts):
        # Groups alternate by index pair; inside a group half the burst
        # comes from even motes and half from odd, which balances it
        # across fleet_sharded's two interleaved regions.
        group = [k for k in range(n_motes) if (k // 2) % 2 == b % 2]
        chosen = (rng.sample(group[0::2], burst // 2)
                  + rng.sample(group[1::2], burst // 2))
        offsets = _phases(burst, BURST_WINDOW, rng)
        for mote_index, offset in zip(chosen, offsets):
            target = aqs[rng.randrange(len(aqs))]
            plan.append((3.0 + 0.5 * MOTE_PERIOD * b + offset,
                         motes[mote_index][0], b, target,
                         target.band.low + 50.0))
    _schedule(job, _Reference(aqs), plan)
    job.horizon = 3.0 + 0.5 * MOTE_PERIOD * n_bursts + STIMULUS_SECONDS
    return job


# ----------------------------------------------------------------------
# mixed_faulty
# ----------------------------------------------------------------------
def _sendphoto(device: Any, args: Any) -> Any:
    """The CREATE ACTION code block (module-level so it pickles)."""
    yield from device.execute("connect")
    outcome = yield from device.execute(
        "receive_mms", sender="aorta", body="alert",
        attachment=args["photo_pathname"], size_kb=10.0)
    return outcome.detail


def install_sendphoto(fleet: Any) -> None:
    """Section 2.2's CREATE ACTION flow, fanning out to every phone."""
    from repro.actions.builtins import sendphoto_profile, sendphoto_resolver
    fleet.install_action_code("lib/users/sendphoto.dll", _sendphoto)
    fleet.install_action_profile(
        "profiles/users/sendphoto.xml", sendphoto_profile(),
        sendphoto_resolver, device_parameters={"phone_no": "number"},
        select_all=True)
    fleet.execute('''CREATE ACTION sendphoto(String phone_no,
                                             String photo_pathname)
        AS "lib/users/sendphoto.dll"
        PROFILE "profiles/users/sendphoto.xml"''')


def _mixed_faulty(seed: int, seconds: float, smoke: bool) -> Job:
    """ROADMAP's representative scenario, with everything going wrong.

    Cameras, motes and phones; photo bands plus sendphoto fan-out;
    random outages and stragglers, one 3x request storm, retries with
    failover, circuit breakers, overload control, and a tenth of the
    AQs dropped and re-registered mid-run.
    """
    rng = random.Random(seed)
    n_cameras, n_motes, n_phones, n_aqs = (
        (12, 8, 4, 60) if smoke else (40, 16, 8, 300))
    n_fan = n_aqs // 30
    aqs: List[AQ] = []
    for i in range(n_aqs - n_fan):
        aqs.append(AQ(f"photo{i:03d}",
                      Band("accel_x", 500.0 + 3.0 * i, 503.0 + 3.0 * i,
                           "open"),
                      priority=1 + i % 3,
                      deadline_seconds=DEADLINE_SECONDS))
    for i in range(n_fan):
        aqs.append(AQ(f"alert{i:02d}",
                      Band("accel_y", 500.0 + 3.0 * i, 503.0 + 3.0 * i,
                           "open"),
                      action="sendphoto", priority=3,
                      deadline_seconds=DEADLINE_SECONDS))
    motes, mote_at = _motes(n_motes)
    cameras = _cameras(n_cameras)
    phones = [(f"phone{k:02d}", DeviceSpec(
        MobilePhone, f"phone{k:02d}", Point(60.0, float(k)),
        number=f"+8529{k:07d}")) for k in range(n_phones)]
    job = Job(
        name="mixed_faulty",
        config={
            "retry": RetryPolicy(max_attempts=3, failover=True),
            "health": HealthPolicy(failure_threshold=3,
                                   quarantine_seconds=15.0,
                                   backoff_factor=2.0,
                                   quarantine_max=120.0),
            "lock_lease_seconds": 60.0,
            "overload": True,
            "overload_policy": OverloadPolicy(
                queue_limit=96, shed_high_watermark=64,
                shed_low_watermark=32),
        },
        devices=cameras + motes + phones, aqs=aqs, mote_at=mote_at,
        fan_out=n_phones)

    n_events = max(24, int(EVENTS_PER_SECOND["mixed_faulty"] * seconds))
    # A fan-out stimulus is n_phones events; one in 30 AQs fans out.
    per_stimulus = (29.0 + n_phones) / 30.0
    n_stimuli = max(12, int(n_events / per_stimulus))
    rate = n_motes / MOTE_PERIOD
    span = n_stimuli / rate
    drop_at, restore_at = 3.0 + 0.4 * span, 3.0 + 0.6 * span
    churned = rng.sample(aqs, n_aqs // 10)
    churned_names = {aq.name for aq in churned}
    job.churn = [(drop_at, sorted(churned_names), []),
                 (restore_at, [], sorted(churned, key=lambda aq: aq.name))]

    def absent(name: str, start: float) -> bool:
        return name in churned_names and drop_at < start < restore_at

    def straddles(start: float) -> bool:
        # A stimulus live across a DROP or re-CREATE may or may not be
        # seen by the churned AQ; such slots only target stable AQs.
        return any(edge - STIMULUS_SECONDS - DETECT_SLACK <= start <= edge
                   for edge in (drop_at, restore_at))

    order = list(mote_at.values())
    rng.shuffle(order)
    phases = _phases(n_stimuli, 1.0 / rate, rng)

    def fits(target: AQ, start: float) -> bool:
        if target.name in churned_names and straddles(start):
            return False
        # A sendphoto request names no mote, so it is mapped back to
        # its event by AQ and time alone: keep one alert AQ's events
        # further apart than a detection window.
        return target.action != "sendphoto" or (
            start - last_alert.get(target.name, -1e9)
            > STIMULUS_SECONDS + DETECT_SLACK)

    stable = [aq for aq in aqs[:n_aqs - n_fan]
              if aq.name not in churned_names]
    deck = _deck([aqs[:n_aqs - n_fan], aqs[n_aqs - n_fan:]], n_stimuli, rng)
    plan = []
    last_alert: Dict[str, float] = {}
    for k in range(len(deck)):
        start = 3.0 + k / rate + phases[k]
        later = next((j for j in range(k, len(deck))
                      if fits(deck[j], start)), None)
        if later is None:
            deck[k] = stable[k % len(stable)]
        else:
            deck[k], deck[later] = deck[later], deck[k]
        target = deck[k]
        if target.action == "sendphoto":
            last_alert[target.name] = start
        plan.append((start, order[k % len(order)], k, target,
                     target.band.low + 1.5))
    _schedule(job, _Reference(aqs), plan, absent)
    job.horizon = 3.0 + span + STIMULUS_SECONDS + 60.0

    # ~3x what the cameras can service (a photo takes 0.4-5 s).
    storm_start, storm_seconds = 3.0 + 0.75 * span, min(10.0, 0.1 * span)
    storm_rate = float(n_cameras)
    camera_ids = tuple(device_id for device_id, _spec in cameras)
    storm_targets = list(mote_at)
    # The fault schedule belongs to the scenario, like the fleet: every
    # seed meets the same outages and stragglers with different events.
    fault_seed = 2005
    for index in range(int(storm_rate * storm_seconds)):
        job.events[(STORM, f"storm{index:05d}")] = (
            storm_start + index / storm_rate)

    def arm(fleet: Any, job: Job) -> None:
        from repro.actions.request import ActionRequest
        from repro.devices.failures import FailureInjector
        engine = fleet.shard(0)
        injector = FailureInjector(engine.env)
        faulty = [fleet.device(device_id)
                  for device_id, _spec in cameras + phones]
        window = job.horizon - 60.0 - STIMULUS_SECONDS
        injector.random_outages(
            faulty, horizon=window, outage_rate_per_device=0.008,
            mean_duration=12.0, rng=random.Random(fault_seed))
        injector.random_stragglers(
            faulty, horizon=window, straggler_rate_per_device=0.004,
            factor_range=(2.0, 6.0), mean_duration=15.0,
            rng=random.Random(fault_seed + 1))
        operator = engine.dispatcher.operator_for(
            engine.actions.get("photo"))
        operator.attach(STORM)

        def make_request(index: int, now: float) -> ActionRequest:
            x, y = storm_targets[index % len(storm_targets)]
            request = ActionRequest(
                action_name="photo",
                arguments={"target": Point(x, y),
                           "directory": "photos/storm"},
                query_id=STORM, created_at=now, candidates=camera_ids,
                request_id=f"storm{index:05d}", priority=1,
                deadline=now + DEADLINE_SECONDS)
            job.storm_requests[request.request_id] = request
            return request

        injector.schedule_request_storm(
            lambda request: engine.dispatcher.submit(operator, request),
            make_request, start=storm_start, duration=storm_seconds,
            rate=storm_rate)

    job.arm = arm
    return job


def build(name: str, seed: int, seconds: float, smoke: bool = False) -> Job:
    """The job of one workload for one seed and run length."""
    if name == "match_heavy":
        return _match_heavy(seed, seconds, smoke)
    if name == "dispatch_heavy":
        return _dispatch_heavy(seed, seconds, smoke)
    if name == "mixed_faulty":
        return _mixed_faulty(seed, seconds, smoke)
    if name == "fleet_sharded":
        return _dispatch_heavy(seed, seconds, smoke, name="fleet_sharded",
                               shards=2)
    raise ValueError(f"unknown workload {name!r}; expected one of "
                     f"{WORKLOADS}")
