"""Engine configuration."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import AortaError

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.devices.health import HealthPolicy
    from repro.overload.policy import OverloadPolicy

#: First-retry backoff, in virtual seconds.
BACKOFF_BASE = 0.5
#: Multiplier applied to the backoff on each further retry.
BACKOFF_FACTOR = 2.0
#: Backoff randomization, as a fraction of the nominal wait (+/-10%).
#: Drawn from the dispatcher's named sim RNG stream, so runs are
#: exactly repeatable.
BACKOFF_JITTER = 0.1
#: Ceiling on any single backoff wait, jitter included.
BACKOFF_MAX = 30.0


@dataclass(frozen=True)
class RetryPolicy:
    """How the dispatcher reacts to transient execution failures.

    The default policy is the pre-fault-tolerance behaviour: one attempt
    per assignment, no failover — a failed request is final. Enabling
    retries makes the dispatcher re-run a transiently failed action on
    its assigned device after an exponential backoff; enabling failover
    makes a request whose device failed re-enter the next batch with
    that device removed from its candidate set, so the scheduler
    reassigns it to a surviving candidate (at most
    :data:`~repro.core.dispatcher.MAX_DISPATCHES` batches per request).
    """

    #: Execution attempts per device assignment (1 = no retries).
    max_attempts: int = 1
    #: Re-dispatch a request to surviving candidates when its device
    #: fails (the failed device is removed from the candidate set).
    failover: bool = False

    def __post_init__(self) -> None:
        # A count of attempts: NaN and 2.5 are refused, not rounded.
        if not (isinstance(self.max_attempts, int)
                and self.max_attempts >= 1):
            raise AortaError(
                f"retry max_attempts must be an integer >= 1, got "
                f"{self.max_attempts!r}")

    def backoff_seconds(self, attempt: int, rng: random.Random) -> float:
        """Wait before retry number ``attempt`` (1-based): exponential,
        jittered, then capped at :data:`BACKOFF_MAX`."""
        nominal = BACKOFF_BASE * BACKOFF_FACTOR ** (attempt - 1)
        nominal *= 1.0 + BACKOFF_JITTER * (2.0 * rng.random() - 1.0)
        return min(nominal, BACKOFF_MAX)


@dataclass
class EngineConfig:
    """Tunables of one engine instance.

    Every boolean here changes what the engine does (a policy), not how
    fast it does the same thing. Event matching, the scheduler's cost
    kernel and device communication have one path each and no flag:
    every AQ is filed in the predicate index, the numpy cost kernel is
    used whenever numpy is installed (DESIGN.md decision 29), every
    exchange rides a pooled keep-alive channel and every action's batch
    is dispatched as its own process (decision 10).

    A field is here because a caller outside the tests sets a second
    value, or an allow-listed reason keeps it (DESIGN.md decision 24).
    What no caller varies is a constant of the module that reads it:
    the scheduling algorithm (SRFAE, which
    :class:`~repro.core.dispatcher.Dispatcher` builds; the other four
    stay in :mod:`repro.scheduling` for the paper-figure benches), the
    poll interval (:data:`repro.core.continuous.POLL_INTERVAL`),
    the batch window (:data:`repro.core.dispatcher.BATCH_WINDOW`), the
    connection pool's size and idle expiry (:mod:`repro.comm.pool`),
    the status cache's TTLs (:mod:`repro.comm.status_cache`), the
    retry backoff's ceiling (:data:`BACKOFF_MAX`) and a ledger-coupled
    fleet's lockstep quantum
    (:data:`repro.shard.coordinator.SHARD_QUANTUM`). Event detection is
    edge-triggered: a device whose predicate stays true across polls is
    one event.
    """

    #: Device locking: one action at a time per device.
    locking: bool = True
    #: Probe candidates (availability + status) before optimization.
    probing: bool = True
    #: Reaction to transient execution failures (default: none, the
    #: pre-fault-tolerance behaviour).
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Per-device circuit-breaker policy; ``None`` disables device
    #: health tracking entirely (no quarantine, no probation probes).
    health: Optional["HealthPolicy"] = None
    #: Lock lease in virtual seconds: a device lock still held this long
    #: after acquisition is forcibly recovered so FIFO waiters proceed
    #: (see DeviceLockManager.recover). ``None`` disables leases.
    lock_lease_seconds: Optional[float] = None
    #: Metrics + span tracing (the repro.obs subsystem). Off by
    #: default; the disabled path is byte-identical to an engine built
    #: before the observability layer existed (pinned by
    #: ``tests/obs/test_invariance.py``).
    observability: bool = False
    #: Wall seconds per runtime second the engine's own runtime is
    #: paced at (``Environment(time_scale=...)``); 0, the default, never
    #: paces. An engine handed an explicit runtime refuses a non-zero
    #: value: that runtime carries its own pacing.
    time_scale: float = 0.0
    #: TTL device-status cache — a policy, not a speed switch: the
    #: dispatcher skips the probe exchange for devices probed within
    #: their type's freshness TTL and costs from the cached status,
    #: trading Section 4's probe-before-every-optimization for
    #: throughput. Entries are invalidated after any execution on the
    #: device, on probe failure, on health-breaker transitions and when
    #: the device leaves. Off by default.
    status_cache: bool = False
    #: Overload-control plane (repro.overload): admission control at
    #: AQ registration and request ingestion, bounded pending queues
    #: with backpressure, and priority load-shedding with deadlines.
    #: Off by default: the off path is byte-identical to a
    #: pre-overload engine (golden-gated).
    overload: bool = False
    #: Overload-plane tunables; ``None`` uses the defaults of
    #: :class:`~repro.overload.policy.OverloadPolicy`. A policy without
    #: ``overload`` is refused: nothing would read it.
    overload_policy: Optional["OverloadPolicy"] = None
    #: Number of engine shards the fleet is partitioned across. Only
    #: :class:`~repro.shard.ShardedEngine` honours values above 1 — a
    #: plain :class:`~repro.core.engine.AortaEngine` owns exactly one
    #: partition and refuses a multi-shard config so a sharded config
    #: can never silently run unsharded.
    shards: int = 1
    #: True parallel shard execution: run each shard's lockstep round
    #: concurrently in its own worker instead of stepping shards
    #: sequentially on the coordinator thread. Only
    #: :class:`~repro.shard.ShardedEngine` honours it, and only with
    #: ``shards > 1`` (a 1-shard fleet keeps its one engine
    #: in-process); a plain engine refuses it, as it refuses
    #: ``shards > 1``. Off by default; a worker fleet's per-shard dumps
    #: are byte-identical to the in-process fleet's (pinned by
    #: ``tests/shard/test_parallel.py``).
    parallel: bool = False
    #: Worker backend for ``parallel=True``: "process" (one worker
    #: process per shard, forked on Linux) is the only value. The field
    #: stays because the end-to-end benchmark passes it by name (ROADMAP
    #: item 15).
    parallel_backend: str = "process"

    def __post_init__(self) -> None:
        # Written so that NaN fails too: every comparison with NaN is
        # False.
        if self.lock_lease_seconds is not None \
                and not 0 < self.lock_lease_seconds < math.inf:
            raise AortaError("lock_lease_seconds must be positive and "
                             "finite")
        if not 0 <= self.time_scale < math.inf:
            raise AortaError("time_scale must be non-negative and finite")
        if self.overload_policy is not None and not self.overload:
            raise AortaError("overload_policy is set but overload is off")
        # A count of shards: NaN and 2.5 are refused, as RetryPolicy
        # refuses them.
        if not (isinstance(self.shards, int) and self.shards >= 1):
            raise AortaError(
                f"shards must be an integer >= 1, got {self.shards!r}")
        if self.parallel_backend != "process":
            raise AortaError(
                f"unknown parallel_backend {self.parallel_backend!r}; "
                f"worker shards are processes (\"process\")")
