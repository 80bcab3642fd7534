"""Per-medium link models: latency, jitter, and packet loss."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.errors import CommunicationError


@dataclass(frozen=True)
class LinkModel:
    """Timing and reliability parameters of one network medium."""

    #: Mean one-way latency in seconds.
    latency_seconds: float
    #: Standard deviation of the latency (Gaussian, floored at zero).
    jitter_seconds: float = 0.0
    #: Probability one exchange is lost entirely.
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        # ``not 0 <= x < inf`` also refuses NaN, which compares false.
        if not 0 <= self.latency_seconds < math.inf:
            raise CommunicationError(
                f"latency must be finite and non-negative, got "
                f"{self.latency_seconds}")
        if not 0 <= self.jitter_seconds < math.inf:
            raise CommunicationError(
                f"jitter must be finite and non-negative, got "
                f"{self.jitter_seconds}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise CommunicationError(
                f"loss_rate must be in [0, 1), got {self.loss_rate}"
            )

    def sample_latency(self, rng: random.Random) -> float:
        """One latency draw, never below zero."""
        if self.jitter_seconds == 0.0:
            return self.latency_seconds
        return max(rng.gauss(self.latency_seconds, self.jitter_seconds), 0.0)

    def drops(self, rng: random.Random) -> bool:
        """Whether this exchange is lost."""
        return self.loss_rate > 0 and rng.random() < self.loss_rate


#: Default media for the three built-in device types: a wired LAN for
#: cameras, the MICA2 radio for motes, the carrier network for phones.
DEFAULT_LINKS = {
    "camera": LinkModel(latency_seconds=0.005, jitter_seconds=0.001),
    "sensor": LinkModel(latency_seconds=0.020, jitter_seconds=0.005,
                        loss_rate=0.02),
    "phone": LinkModel(latency_seconds=0.300, jitter_seconds=0.050,
                       loss_rate=0.01),
}
