"""Overload-control policy knobs.

One frozen dataclass collects every tunable of the overload plane —
request rate limits, the bounded-queue limit and the load-shedding
hysteresis thresholds — so an engine run is fully described by
``EngineConfig(overload=True, overload_policy=...)`` and replays
deterministically. The capacity window and the protected tier are
constants of :mod:`repro.overload.admission`, the shedder's period and
protected tier constants of :mod:`repro.overload.shedding`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import AortaError


@dataclass(frozen=True)
class TierRate:
    """Token-bucket parameters for one priority tier.

    ``rate`` is sustained requests per virtual second; ``burst`` is the
    bucket depth (how far above the sustained rate a short spike may
    go). A tier without a :class:`TierRate` is not rate limited.
    """

    rate: float
    burst: float

    def __post_init__(self) -> None:
        # Written so that NaN fails too: every comparison with NaN is
        # False.
        if not 0 < self.rate < math.inf:
            raise AortaError("tier rate must be positive and finite")
        if not 1 <= self.burst < math.inf:
            raise AortaError("tier burst must be >= 1 and finite")


@dataclass(frozen=True)
class OverloadPolicy:
    """Every tunable of the overload-control plane.

    The defaults are deliberately permissive: no per-tier rate limits,
    a generous queue bound, and shedding watermarks sized for hundreds
    of pending requests — an engine that is *not* overloaded behaves
    identically whether the plane is on or off (the invariant the
    hypothesis suite pins).
    """

    #: Per-priority-tier request rate limits. A tier absent from the
    #: mapping is unlimited; ``None`` disables rate limiting entirely.
    tier_rates: Optional[Dict[int, TierRate]] = None
    #: Pending-queue bound installed on every shared action operator.
    #: ``None`` keeps queues unbounded (admission/shedding still run).
    queue_limit: Optional[int] = 256
    #: Total pending requests (across operators) above which shedding
    #: activates.
    shed_high_watermark: int = 192
    #: Once active, shedding drops worst-first until total pending
    #: falls to this level, then deactivates (hysteresis: strictly
    #: below the high watermark so shedding starts and stops
    #: deterministically instead of flapping).
    shed_low_watermark: int = 128

    def __post_init__(self) -> None:
        # Counts of requests: a NaN bound or watermark compares False
        # against every depth, so it would never bound or shed.
        if self.queue_limit is not None and not (
                isinstance(self.queue_limit, int) and self.queue_limit >= 1):
            raise AortaError(
                f"queue_limit must be an integer >= 1, got "
                f"{self.queue_limit!r}")
        if not (isinstance(self.shed_low_watermark, int)
                and isinstance(self.shed_high_watermark, int)
                and self.shed_low_watermark >= 0
                and self.shed_high_watermark >= 1):
            raise AortaError(
                "shed watermarks must be non-negative integers")
        if self.shed_low_watermark >= self.shed_high_watermark:
            raise AortaError(
                "shed_low_watermark must be strictly below "
                "shed_high_watermark (hysteresis)")
