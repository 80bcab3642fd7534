"""Failure injection for devices.

Pervasive devices "are intrinsically unreliable" (Section 4). The
injector schedules failure episodes on the simulation clock so tests
and benchmarks can exercise the probing mechanism's exclusion of
malfunctioning devices deterministically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.errors import DeviceError, QueueFullError
from repro.actions.request import ActionRequest
from repro.devices.base import Device
from repro.sim import Environment, Event


@dataclass(frozen=True)
class OutageSpec:
    """One planned outage episode for a device."""

    device_id: str
    start: float
    duration: float
    #: ``offline`` = clean leave and rejoin; ``crash`` = hard fault + repair.
    kind: str = "offline"

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise DeviceError("outage duration must be positive")
        if self.kind not in ("offline", "crash"):
            raise DeviceError(f"unknown outage kind {self.kind!r}")


@dataclass(frozen=True)
class StragglerSpec:
    """One planned straggler episode: a device runs slow for a while.

    "Slow" means every operation duration is multiplied by ``factor``
    (via :meth:`Device.service_seconds`) between ``start`` and
    ``start + duration`` — the device stays online and answers probes,
    which is exactly what makes stragglers harder on the scheduler
    than outages: cost estimates stay optimistic while actual service
    times balloon.
    """

    device_id: str
    start: float
    duration: float
    factor: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise DeviceError("straggler duration must be positive")
        if self.factor <= 1.0:
            raise DeviceError(
                f"straggler factor must exceed 1.0, got {self.factor}")


class FailureInjector:
    """Schedules outage, straggler and storm episodes onto the sim."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.scheduled: List[OutageSpec] = []
        self.scheduled_stragglers: List[StragglerSpec] = []
        #: Storm submissions refused by backpressure/admission, per
        #: storm in scheduling order.
        self.storm_rejected: List[int] = []

    def schedule_outage(self, device: Device, spec: OutageSpec) -> None:
        """Arrange for ``device`` to fail per ``spec``."""
        if spec.device_id != device.device_id:
            raise DeviceError(
                f"outage for {spec.device_id!r} scheduled on device "
                f"{device.device_id!r}"
            )
        if spec.kind == "offline":
            apply, revert = device.go_offline, device.go_online
        else:
            apply, revert = device.crash, device.repair
        self._episode(f"outage for {spec.device_id!r}", spec.start,
                      spec.duration, apply, revert)
        self.scheduled.append(spec)

    def _episode(self, fault: str, start: float, duration: float,
                 apply: Callable[[], None],
                 revert: Callable[[], None]) -> None:
        """Every fault's two timers: ``apply`` at ``start``, ``revert``
        ``duration`` later. A ``start`` already past is refused."""
        if start < self.env.now:
            raise DeviceError(
                f"{fault} starts at {start} but the clock is already at "
                f"{self.env.now}")

        def begin(_start: Event) -> None:
            apply()
            self.env.timeout(duration).callbacks.append(lambda _end: revert())

        self.env.timeout(start - self.env.now).callbacks.append(begin)

    def schedule_coverage_dropout(
        self, phone: "MobilePhone", start: float, duration: float
    ) -> None:
        """The phone's owner walks out of carrier coverage for a while.

        Distinct from an outage: the device is powered and healthy, but
        the network cannot reach it — the paper's "a phone may become
        unreachable when its owner moves into an area that is out of
        the coverage of the service provider" (Section 4).
        """
        from repro.devices.phone import MobilePhone
        if not isinstance(phone, MobilePhone):
            raise DeviceError(
                f"coverage dropouts only apply to phones, not "
                f"{phone.device_type!r}"
            )
        if duration <= 0:
            raise DeviceError("dropout duration must be positive")
        self._episode(f"dropout for {phone.device_id!r}", start, duration,
                      phone.leave_coverage, phone.enter_coverage)

    # ------------------------------------------------------------------
    # Stragglers: slow devices, not dead ones
    # ------------------------------------------------------------------
    def schedule_straggler(self, device: Device,
                           spec: StragglerSpec) -> None:
        """Arrange for ``device`` to run slow per ``spec``.

        The inflation composes multiplicatively with any slowdown
        already in force when the episode starts (overlapping episodes
        stack), and the episode end restores exactly the factor it
        found — never clobbering a concurrent episode's contribution.
        """
        if spec.device_id != device.device_id:
            raise DeviceError(
                f"straggler for {spec.device_id!r} scheduled on device "
                f"{device.device_id!r}"
            )

        def slow_down() -> None:
            device.slowdown_factor *= spec.factor

        def recover() -> None:
            device.slowdown_factor /= spec.factor

        self._episode(f"straggler for {spec.device_id!r}", spec.start,
                      spec.duration, slow_down, recover)
        self.scheduled_stragglers.append(spec)

    def random_stragglers(
        self,
        devices: List[Device],
        *,
        horizon: float,
        straggler_rate_per_device: float,
        factor_range: Tuple[float, float] = (2.0, 8.0),
        mean_duration: float = 20.0,
        rng: Optional[random.Random] = None,
    ) -> int:
        """Random straggler episodes across ``devices``.

        Mirrors :meth:`random_outages`: deterministic given an explicit
        ``rng``, per-device substreams (labelled ``straggler:<id>`` so
        they never collide with the outage substreams of the same base
        seed), and horizon clamping so every episode also *ends* inside
        the horizon. Returns the number of episodes scheduled.
        """
        low, high = factor_range
        if not 1.0 < low <= high:
            raise DeviceError(
                f"factor_range must satisfy 1 < low <= high, got "
                f"{factor_range}")
        count = 0
        for device, _, start, duration, factor in self._random_episodes(
                devices, horizon, straggler_rate_per_device, mean_duration,
                rng, "straggler:", lambda draw: draw.uniform(low, high)):
            self.schedule_straggler(device, StragglerSpec(
                device_id=device.device_id, start=start,
                duration=duration, factor=factor,
            ))
            count += 1
        return count

    # ------------------------------------------------------------------
    # Request storms: overload, not failure
    # ------------------------------------------------------------------
    def schedule_request_storm(
        self,
        submit: Callable[[ActionRequest], Any],
        make_request: Callable[[int, float], ActionRequest],
        *,
        start: float,
        duration: float,
        rate: float,
    ) -> int:
        """Inject a deterministic flood of action requests.

        ``rate`` requests per virtual second arrive uniformly spaced
        over ``[start, start + duration)``; request ``i`` is built by
        ``make_request(i, arrival_time)`` at its arrival instant and
        handed to ``submit`` (typically ``dispatcher.submit`` bound to
        an operator, or a bare ``operator.submit``). Refusals — a
        False return or :class:`~repro.errors.QueueFullError` — are
        tallied in :attr:`storm_rejected`; without overload control
        neither occurs and the storm just grows the pending queue.
        Returns the number of arrivals scheduled.
        """
        if duration <= 0:
            raise DeviceError("storm duration must be positive")
        if rate <= 0:
            raise DeviceError("storm rate must be positive")
        if start < self.env.now:
            raise DeviceError(
                f"storm starts at {start} but the clock is already at "
                f"{self.env.now}")
        count = int(rate * duration)
        storm_index = len(self.storm_rejected)
        self.storm_rejected.append(0)
        self.env.process(self._run_storm(submit, make_request, start,
                                         rate, count, storm_index))
        return count

    def _run_storm(self, submit, make_request, start: float, rate: float,
                   count: int, storm_index: int):
        delay = start - self.env.now
        if delay > 0:
            yield self.env.timeout(delay)
        previous = self.env.now
        for index in range(count):
            arrival = start + index / rate
            if arrival > previous:
                yield self.env.timeout(arrival - previous)
                previous = arrival
            request = make_request(index, self.env.now)
            try:
                accepted = submit(request)
            except QueueFullError:
                accepted = False
            if accepted is False:
                self.storm_rejected[storm_index] += 1

    def random_outages(
        self,
        devices: List[Device],
        *,
        horizon: float,
        outage_rate_per_device: float,
        mean_duration: float,
        rng: Optional[random.Random] = None,
    ) -> int:
        """Poisson-like random outages across ``devices``.

        Returns the number of episodes scheduled. Deterministic given
        an explicit ``rng`` — and per-device deterministic: every
        device's episodes are drawn from its own substream derived from
        the device ID, so adding or removing a device (or one drawing
        zero episodes) never perturbs any other device's schedule.
        Episodes are clamped so ``start + duration`` never exceeds the
        horizon: every injected outage also recovers inside it.
        """
        count = 0
        for device, device_rng, start, duration, _ in self._random_episodes(
                devices, horizon, outage_rate_per_device, mean_duration,
                rng, ""):
            kind = "crash" if device_rng.random() < 0.2 else "offline"
            self.schedule_outage(device, OutageSpec(
                device_id=device.device_id, start=start,
                duration=duration, kind=kind,
            ))
            count += 1
        return count

    def _random_episodes(
        self,
        devices: List[Device],
        horizon: float,
        rate_per_device: float,
        mean_duration: float,
        rng: Optional[random.Random],
        stream: str,
        draw_more: Optional[Callable[[random.Random], Any]] = None,
    ) -> Iterator[Tuple[Device, random.Random, float, float, Any]]:
        """``(device, its substream, start, duration, more)`` per episode.

        Each device draws from its own substream of ``rng``, labelled
        ``stream + device_id``. An episode draws its start and duration,
        then ``draw_more`` (``more`` is its value, else None); one that
        starts past the horizon is dropped, and the duration of the
        rest is clamped so the episode also ends inside it. The caller
        may keep drawing from the substream for a kept episode.
        """
        if horizon <= 0:
            raise DeviceError("horizon must be positive")
        from repro.sim.rng import derive_seed
        rng = rng or random.Random(0)
        base_seed = rng.getrandbits(64)
        end_limit = self.env.now + horizon
        expected = rate_per_device * horizon
        for device in devices:
            device_rng = random.Random(
                derive_seed(base_seed, stream + device.device_id))
            episodes = int(expected) + (
                1 if device_rng.random() < expected % 1 else 0)
            for _ in range(episodes):
                start = self.env.now + device_rng.uniform(0, horizon)
                duration = max(
                    device_rng.expovariate(1.0 / mean_duration), 1e-3)
                more = draw_more(device_rng) if draw_more else None
                if start >= end_limit:
                    continue
                yield (device, device_rng, start,
                       min(duration, end_limit - start), more)
