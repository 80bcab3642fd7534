"""Coordinated advancement of a fleet of runtimes.

A sharded fleet runs one runtime per shard. The shards own disjoint
device sets, so their event streams never interact: a query over one
shard's devices is a *local* predicate and needs no clock agreement
with any other shard. What rounds are for is the one thing shards can
share while a run is in progress — the fleet's capacity commitments,
which each shard's admission reads from its own ledger as of the last
barrier, at its own clock. Letting one shard race hours ahead of
another would let it spend capacity windows the others have not
reached unseen, so a ledger-coupled fleet advances through
:func:`run_lockstep` in rounds of at most ``quantum`` runtime seconds:
no shard's clock is ever more than one quantum ahead of the slowest,
and the ledgers sync at every barrier.
A fleet that shares nothing passes ``quantum=None`` and gets one round
straight to ``until``. Nothing else can observe the skew: merged
statistics cannot be read mid-run, because the thread that would read
them is the one inside ``run()``, and it returns only after every peer
has arrived. The loop is the one place the bound is defined, for every
kind of fleet.

The loop drives :class:`RoundPeer` objects and does not know where a
peer's runtime lives: each round it broadcasts the deadline to every
peer, then collects every result *in peer order* before opening the
next round, so nothing downstream of the barrier depends on arrival
order. :class:`RuntimePeer` is the peer over a runtime in this
process — ``begin_round`` records the round, ``finish_round`` computes
it, so local peers step one after another in peer order. A peer whose
runtime lives in a worker (:class:`~repro.shard.parallel.ShardWorker`)
sends the round down its pipe in ``begin_round`` and the worker
computes it with the same :class:`RuntimePeer` body, so those rounds
overlap between barriers.

``max_events`` is a **fleet-wide cumulative budget**: the events every
shard consumes in every round count against one shared allowance, and
exhausting it raises :class:`~repro.errors.SimulationError` carrying
per-shard queue diagnostics instead of stalling silently. The budget
only fires when due work remains: a run that consumes exactly its
allowance and quiesces is not an error. Every peer of one round is
handed the full remaining allowance and the decrement happens once per
round — rounds that overlap cannot thread a sequentially decremented
allowance, and one rule for every fleet beats an exact meter for some —
so a runaway fleet may overshoot by up to ``(shards - 1) x remaining``
events before the barrier notices; it is a watchdog bound, not a
meter, and the same bound whether the run is one round or many.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, List, Optional, Protocol, Sequence, Tuple,
)

from repro.errors import SimulationError
from repro.sim import Environment


@dataclass
class RoundResult:
    """What one shard reports back from one lockstep round."""

    #: The shard's clock after the round (== the round deadline).
    now: float
    #: Events the shard processed during the round.
    events: int
    #: Wall-clock seconds the shard spent computing the round.
    busy_seconds: float = 0.0
    #: Events still pending in the shard's queue after the round.
    pending: int = 0
    #: Capacity the shard committed since its ledger's last sync, by
    #: window (empty with overload control off).
    commits: Dict[int, float] = field(default_factory=dict)


class RoundBudgetError(SimulationError):
    """A shard exhausted its event allowance inside one round.

    Raised by a :class:`RoundPeer`'s ``finish_round`` so the barrier
    loop can tell budget exhaustion (aggregate into a fleet-wide
    diagnostic) from other simulation errors (propagate as-is). Carries
    the shard's state at the moment the watchdog fired.
    """

    def __init__(self, message: str, *, now: float = 0.0,
                 events: int = 0, pending: int = 0) -> None:
        super().__init__(message)
        self.now = now
        self.events = events
        self.pending = pending


class RoundPeer(Protocol):
    """A shard the barrier loop can drive through rounds.

    ``begin_round`` must only *submit* the round (non-blocking), so the
    loop can start every peer before waiting on any; ``finish_round``
    blocks until that peer's round completes and either returns its
    :class:`RoundResult` or raises (:class:`RoundBudgetError` for an
    exhausted event allowance, anything else for a real failure).
    """

    def now(self) -> float:
        """The peer's current runtime clock."""
        ...

    def begin_round(self, deadline: float,
                    max_events: Optional[int]) -> None:
        """Submit one round without waiting for it."""
        ...

    def finish_round(self) -> RoundResult:
        """Block until the submitted round completes."""
        ...


class RuntimePeer:
    """A runtime in this process as a :class:`RoundPeer`.

    The one definition of what a shard does in a round: run to the
    deadline unless already past it (a previous coordinated run may
    have advanced this runtime further — ``run`` with a non-decreasing
    deadline is the only call ever issued), and turn the runtime's
    watchdog error into :class:`RoundBudgetError` when the round's
    allowance is what ran out.
    """

    def __init__(self, runtime: Environment) -> None:
        self.runtime = runtime
        self._round: Tuple[float, Optional[int]] = (runtime.now, None)

    def now(self) -> float:
        return self.runtime.now

    def begin_round(self, deadline: float,
                    max_events: Optional[int]) -> None:
        self._round = (deadline, max_events)

    def finish_round(self) -> RoundResult:
        deadline, max_events = self._round
        runtime = self.runtime
        started = time.perf_counter()
        before = runtime.events_processed
        try:
            if runtime.now <= deadline:
                runtime.run(until=deadline, max_events=max_events)
        except SimulationError as error:
            used = runtime.events_processed - before
            if max_events is not None and used >= max_events:
                raise RoundBudgetError(
                    str(error), now=runtime.now, events=used,
                    pending=runtime.pending_events) from error
            raise
        return RoundResult(
            now=runtime.now,
            events=runtime.events_processed - before,
            busy_seconds=time.perf_counter() - started,
            pending=runtime.pending_events)


def _budget_exhausted(
    budget: int,
    shard_states: Sequence[Tuple[float, int]],
) -> SimulationError:
    """The fleet-wide watchdog error, with per-shard queue diagnostics."""
    queues = ", ".join(
        f"shard {index}: t={now:.6f} pending={pending}"
        for index, (now, pending) in enumerate(shard_states))
    return SimulationError(
        f"fleet event budget exhausted: max_events={budget} consumed "
        f"across lockstep rounds with work still due ({queues}); a "
        f"shard is likely scheduling events faster than it completes "
        f"them")


#: Observer invoked after each successful round with ``(deadline,
#: wall_seconds, results)`` — the hook the coordinator of a worker
#: fleet uses for per-round wall-clock metrics and barrier-wait
#: accounting.
RoundObserver = Callable[[float, float, List[RoundResult]], None]


def run_lockstep(
    peers: Sequence[RoundPeer],
    until: float,
    *,
    quantum: Optional[float] = 1.0,
    max_events: Optional[int] = None,
    on_round: Optional[RoundObserver] = None,
) -> float:
    """Advance every peer to ``until``, one barriered round at a time.

    Round deadlines are ``min(deadline + quantum, until)`` from the
    slowest peer's clock — or ``until`` itself, one round, when
    ``quantum`` is ``None`` (peers that share nothing have no skew to
    bound); peers already past a deadline skip that round themselves.
    ``max_events`` is the fleet-wide cumulative budget described in
    the module docstring. Determinism rule:
    results are collected in **peer order**, never arrival order, so
    everything downstream of the barrier (budget accounting,
    completion merges, metrics) is independent of scheduling noise.

    If any peer fails mid-round, the loop still drains every other
    peer's reply (keeping worker pipes in lockstep for teardown), then
    raises for the lowest-indexed failure; budget exhaustion aggregates
    all peers into one fleet-wide diagnostic. Returns ``until``.
    """
    # Written so that NaN fails the checks: it compares false.
    if quantum is not None and not 0 < quantum < math.inf:
        raise SimulationError(f"lockstep quantum must be positive and "
                              f"finite, got {quantum}")
    if not peers:
        raise SimulationError("a lockstep fleet needs at least one "
                              "runtime")
    deadline = min(peer.now() for peer in peers)
    if not until >= deadline:
        raise SimulationError(
            f"cannot run lockstep to t={until}: it is NaN or a runtime "
            f"is already at t={deadline}")
    remaining = max_events
    while deadline < until:
        deadline = until if quantum is None \
            else min(deadline + quantum, until)
        started = time.perf_counter()
        for peer in peers:
            peer.begin_round(deadline, remaining)
        #: Per peer, its RoundResult or what finish_round raised.
        outcomes: List[Any] = []
        for peer in peers:
            try:
                outcomes.append(peer.finish_round())
            except BaseException as error:  # noqa: BLE001 - re-raised below
                outcomes.append(error)
        wall_seconds = time.perf_counter() - started
        failures = [outcome for outcome in outcomes
                    if isinstance(outcome, BaseException)]
        if failures:
            if max_events is not None and all(
                    isinstance(error, RoundBudgetError)
                    for error in failures):
                # A result and a budget error both carry the shard's
                # clock and queue depth.
                raise _budget_exhausted(max_events, [
                    (outcome.now, outcome.pending) for outcome in outcomes])
            raise failures[0]
        if remaining is not None:
            remaining = max(0, remaining - sum(
                result.events for result in outcomes))
        if on_round is not None:
            on_round(deadline, wall_seconds, outcomes)
    return until
