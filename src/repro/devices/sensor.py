"""Simulated Berkeley MICA2 sensor mote with an MTS310CA sensor board.

Motes expose accelerometer, temperature and light readings plus battery
voltage; they communicate over a lossy radio and may sit several hops
deep in the network ("the depth of a sensor in a multi-hop network
affects the cost of connecting the sensor", paper Section 2.3).

Physical-world events are injected as :class:`SensorStimulus` records —
e.g. "someone pushes the door and causes a movement of the door
together with the sensor attached on it" (Section 2.2) becomes an
``accel_x`` stimulus, which the snapshot query's ``s.accel_x > 500``
predicate then detects.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

from repro.errors import CommunicationError, DeviceError
from repro.geometry import Point
from repro.devices.base import Device
from repro.sim import Environment

#: Baseline sensory readings of an idle mote.
BASELINES = {
    "accel_x": 0.0,      # milli-g
    "accel_y": 0.0,      # milli-g
    "temperature": 22.0,  # Celsius
    "light": 300.0,       # lux
}

#: Fresh-battery voltage and the cutoff below which the mote dies.
BATTERY_FULL_VOLTS = 3.0
BATTERY_DEAD_VOLTS = 2.0

#: Battery cost (volts) per atomic operation.
OPERATION_DRAIN = {
    "connect": 0.0002,
    "read_sample": 0.0001,
    "beep": 0.0010,
    "blink": 0.0005,
}


@dataclass(frozen=True)
class SensorStimulus:
    """A physical-world event affecting one sensory attribute.

    While active (``start <= now < start + duration``) the stimulus adds
    ``magnitude`` to the attribute's baseline reading.
    """

    attribute: str
    start: float
    duration: float
    magnitude: float

    def __post_init__(self) -> None:
        if self.attribute not in BASELINES:
            raise DeviceError(
                f"stimulus attribute {self.attribute!r} is not a sensory "
                f"reading (expected one of {sorted(BASELINES)})"
            )
        if self.duration <= 0:
            raise DeviceError("stimulus duration must be positive")


class SensorMote(Device):
    """One MICA2 mote: sensing, lossy radio, beep/blink actuators."""

    device_type = "sensor"

    def __init__(
        self,
        env: Environment,
        device_id: str,
        location: Point,
        *,
        hop_depth: int = 1,
        packet_loss_rate: float = 0.0,
        noise_amplitude: float = 1.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(env, device_id, location)
        if hop_depth < 1:
            raise DeviceError(f"hop_depth must be >= 1, got {hop_depth}")
        if not 0.0 <= packet_loss_rate < 1.0:
            raise DeviceError(
                f"packet_loss_rate must be in [0, 1), got {packet_loss_rate}"
            )
        self.hop_depth = hop_depth
        self.packet_loss_rate = packet_loss_rate
        self.noise_amplitude = noise_amplitude
        self._rng = rng or random.Random(0)
        self.battery_volts = BATTERY_FULL_VOLTS
        #: Stimuli that have not yet expired, ordered by start (ties in
        #: injection order); a read drops the expired ones.
        self._stimuli: List[SensorStimulus] = []
        #: Seconds of one-hop radio latency; total = hops * this.
        self.per_hop_seconds = 0.02

    # ------------------------------------------------------------------
    # Physical-world event injection
    # ------------------------------------------------------------------
    def inject(self, stimulus: SensorStimulus) -> None:
        """Attach a stimulus; readings reflect it while it is active."""
        bisect.insort_right(self._stimuli, stimulus,
                            key=lambda s: s.start)

    # ------------------------------------------------------------------
    # Attributes
    # ------------------------------------------------------------------
    def read_sensory(self, name: str) -> Any:
        if name == "battery":
            return self.battery_volts
        if name in BASELINES:
            if self.battery_volts <= BATTERY_DEAD_VOLTS:
                raise DeviceError(
                    f"sensor {self.device_id}: battery dead "
                    f"({self.battery_volts:.2f} V)"
                )
            value = BASELINES[name] + self._stimulated(name)
            if self.noise_amplitude:  # gauss(0, 0) is 0.0: skip the draw
                value += self._rng.gauss(0.0, self.noise_amplitude)
            return value
        return super().read_sensory(name)

    def _stimulated(self, name: str) -> float:
        """Summed magnitude of the stimuli on ``name`` active now.

        Walks the started stimuli only, dropping every one that has
        expired: none can be active again.
        """
        now = self.env.now
        stimuli = self._stimuli
        total = 0.0
        index = 0
        while index < len(stimuli):
            stimulus = stimuli[index]
            if stimulus.start > now:
                break
            if stimulus.start + stimulus.duration <= now:
                del stimuli[index]
                continue
            if stimulus.attribute == name:
                total += stimulus.magnitude
            index += 1
        return total

    def physical_status(self) -> Dict[str, float]:
        return {"battery": self.battery_volts, "hop_depth": float(self.hop_depth)}

    # ------------------------------------------------------------------
    # Radio
    # ------------------------------------------------------------------
    def radio_delivers(self) -> bool:
        """One Bernoulli draw of the lossy radio channel."""
        return self._rng.random() >= self.packet_loss_rate

    def _drain(self, operation: str) -> None:
        self.battery_volts = max(
            self.battery_volts - OPERATION_DRAIN[operation], 0.0)

    # ------------------------------------------------------------------
    # Atomic operations
    # ------------------------------------------------------------------
    def operation_names(self) -> tuple[str, ...]:
        return ("connect", "read_sample", "beep", "blink")

    def op_connect(self) -> Generator[Any, Any, None]:
        """Establish a multi-hop route to the mote; deeper is slower,
        and every hop is a chance for the lossy radio to drop us."""
        self._drain("connect")
        for _ in range(self.hop_depth):
            yield self.env.timeout(self.service_seconds(
                self.per_hop_seconds))
            if not self.radio_delivers():
                raise CommunicationError(
                    f"sensor {self.device_id}: radio packet lost en route"
                )

    def op_read_sample(self) -> Generator[Any, Any, Dict[str, float]]:
        """Sample every sensory attribute once."""
        self._drain("read_sample")
        yield self.env.timeout(self.service_seconds(0.01))
        return {name: self.read_sensory(name) for name in BASELINES}

    def op_beep(self) -> Generator[Any, Any, None]:
        """Sound the on-board buzzer once."""
        self._drain("beep")
        yield self.env.timeout(self.service_seconds(0.5))

    def op_blink(self) -> Generator[Any, Any, None]:
        """Flash the on-board LEDs once."""
        self._drain("blink")
        yield self.env.timeout(self.service_seconds(0.25))
