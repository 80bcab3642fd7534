"""The round loop: cumulative budgets and the barrier.

``run_lockstep``'s fleet-wide ``max_events`` semantics are pinned here
over real runtimes behind :class:`RuntimePeer` (it used to be a
per-call watchdog, letting a runaway fleet process ``rounds x shards x
max_events`` events before firing), alongside fake-peer tests of the
barrier — peer-order result collection, budget threading, failure
aggregation and propagation — and unit tests of the per-round body.
"""

from typing import List, Optional

import pytest

from repro.errors import SimulationError
from repro.shard.fleet import (
    RoundBudgetError,
    RoundResult,
    RuntimePeer,
    run_lockstep,
)
from repro.sim import Environment


# ----------------------------------------------------------------------
# run_lockstep: the cumulative fleet-wide event budget
# ----------------------------------------------------------------------
def ticking_runtime(period: float = 1.0,
                    ticks: Optional[int] = None) -> Environment:
    """A runtime with one recurring timer (1 event per period)."""
    runtime = Environment()

    def clock(env):
        fired = 0
        while ticks is None or fired < ticks:
            yield env.timeout(period)
            fired += 1

    runtime.process(clock(runtime))
    return runtime


def test_lockstep_budget_is_cumulative_across_rounds():
    # One event per 1.0s round: per-call semantics would never trip a
    # budget of 5 (each round consumes 1 of a fresh 5); the cumulative
    # budget must fire before t=10.
    runtime = ticking_runtime(period=1.0)
    with pytest.raises(SimulationError,
                       match="fleet event budget exhausted"):
        run_lockstep([RuntimePeer(runtime)], 10.0, quantum=1.0,
                     max_events=5)


def test_lockstep_budget_is_shared_across_shards():
    # Two shards ticking in step: the fleet consumes 2 events per
    # round, so a budget of 7 dies mid-flight even though each shard
    # alone would fit.
    fleet = [RuntimePeer(ticking_runtime(period=1.0)),
             RuntimePeer(ticking_runtime(period=1.0))]
    with pytest.raises(SimulationError,
                       match="fleet event budget exhausted"):
        run_lockstep(fleet, 10.0, quantum=1.0, max_events=7)


def test_lockstep_budget_error_carries_per_shard_diagnostics():
    fleet = [RuntimePeer(ticking_runtime(period=1.0)),
             RuntimePeer(ticking_runtime(period=0.5))]
    with pytest.raises(SimulationError) as excinfo:
        run_lockstep(fleet, 10.0, quantum=1.0, max_events=4)
    message = str(excinfo.value)
    assert "max_events=4" in message
    assert "shard 0:" in message and "shard 1:" in message
    assert "pending=" in message


def test_lockstep_exact_budget_with_quiescent_fleet_succeeds():
    # Measure the workload's true event count, then grant exactly that
    # many: the budget only fires when due work remains, so consuming
    # the full allowance and quiescing is not an error.
    probe = ticking_runtime(period=1.0, ticks=3)
    run_lockstep([RuntimePeer(probe)], 10.0, quantum=2.0)
    total = probe.events_processed

    exact = ticking_runtime(period=1.0, ticks=3)
    assert run_lockstep([RuntimePeer(exact)], 10.0, quantum=2.0,
                        max_events=total) == 10.0
    assert exact.events_processed == total

    starved = ticking_runtime(period=1.0, ticks=3)
    with pytest.raises(SimulationError,
                       match="fleet event budget exhausted"):
        run_lockstep([RuntimePeer(starved)], 10.0, quantum=2.0,
                     max_events=total - 1)


# ----------------------------------------------------------------------
# The barrier: fake peers
# ----------------------------------------------------------------------
class FakePeer:
    """A scripted RoundPeer advancing ``events_per_round`` per round."""

    def __init__(self, index: int, log: List[str],
                 events_per_round: int = 1,
                 fail_with: Optional[BaseException] = None,
                 fail_at_round: int = 1) -> None:
        self.index = index
        self.log = log
        self.events_per_round = events_per_round
        self.fail_with = fail_with
        self.fail_at_round = fail_at_round
        self.rounds = 0
        self.budgets: List[Optional[int]] = []
        self._now = 0.0
        self._deadline = 0.0

    def now(self) -> float:
        return self._now

    def begin_round(self, deadline: float,
                    max_events: Optional[int]) -> None:
        self.log.append(f"begin{self.index}")
        self.budgets.append(max_events)
        self._deadline = deadline

    def finish_round(self) -> RoundResult:
        self.log.append(f"finish{self.index}")
        self.rounds += 1
        if self.fail_with is not None and self.rounds >= self.fail_at_round:
            raise self.fail_with
        self._now = self._deadline
        return RoundResult(now=self._now, events=self.events_per_round,
                           busy_seconds=0.001, pending=1)


def test_parallel_rounds_broadcast_then_collect_in_peer_order():
    log: List[str] = []
    peers = [FakePeer(i, log) for i in range(3)]
    assert run_lockstep(peers, 2.0, quantum=1.0) == 2.0
    # Every round submits to all peers before collecting from any, and
    # collection order is peer order regardless of completion order.
    assert log == ["begin0", "begin1", "begin2",
                   "finish0", "finish1", "finish2"] * 2
    assert all(peer.now() == 2.0 for peer in peers)


def test_parallel_rounds_thread_the_remaining_budget():
    log: List[str] = []
    peers = [FakePeer(i, log, events_per_round=3) for i in range(2)]
    run_lockstep(peers, 3.0, quantum=1.0, max_events=100)
    # Each round consumes 6 fleet-wide; every peer of a round is handed
    # the full remaining allowance (concurrent rounds cannot thread a
    # sequentially decremented budget).
    assert peers[0].budgets == [100, 94, 88]
    assert peers[1].budgets == [100, 94, 88]


def test_parallel_rounds_aggregate_budget_exhaustion():
    log: List[str] = []
    peers = [
        FakePeer(0, log, fail_with=RoundBudgetError(
            "budget", now=0.5, events=7, pending=4)),
        FakePeer(1, log),
    ]
    with pytest.raises(SimulationError,
                       match="fleet event budget exhausted") as excinfo:
        run_lockstep(peers, 5.0, quantum=1.0, max_events=7)
    message = str(excinfo.value)
    # The diagnostic covers both the exhausted shard and the healthy
    # one that finished its round.
    assert "shard 0: t=0.500000 pending=4" in message
    assert "shard 1: t=1.000000 pending=1" in message


def test_parallel_rounds_propagate_the_lowest_indexed_failure():
    log: List[str] = []
    first, second = ValueError("shard 1 broke"), ValueError("shard 2 broke")
    peers = [FakePeer(0, log),
             FakePeer(1, log, fail_with=first),
             FakePeer(2, log, fail_with=second)]
    with pytest.raises(ValueError, match="shard 1 broke"):
        run_lockstep(peers, 5.0, quantum=1.0)
    # The barrier still drained every peer's reply before raising.
    assert log.count("finish2") == 1


def test_parallel_rounds_mixed_failures_prefer_the_real_error():
    # A budget error alongside a real failure is not fleet-wide budget
    # exhaustion: the real (lowest-indexed) failure wins.
    log: List[str] = []
    peers = [FakePeer(0, log, fail_with=ValueError("broken")),
             FakePeer(1, log, fail_with=RoundBudgetError("budget"))]
    with pytest.raises(ValueError, match="broken"):
        run_lockstep(peers, 5.0, quantum=1.0, max_events=10)


def test_parallel_rounds_invoke_the_round_observer():
    observed: List[tuple] = []
    log: List[str] = []
    peers = [FakePeer(i, log, events_per_round=2) for i in range(2)]
    run_lockstep(
        peers, 2.0, quantum=1.0,
        on_round=lambda deadline, wall, results:
        observed.append((deadline, len(results),
                         sum(result.events for result in results))))
    assert observed == [(1.0, 2, 4), (2.0, 2, 4)]


def test_parallel_rounds_validate_like_lockstep():
    log: List[str] = []
    with pytest.raises(SimulationError, match="quantum"):
        run_lockstep([FakePeer(0, log)], 10.0, quantum=0.0)
    with pytest.raises(SimulationError, match="at least one"):
        run_lockstep([], 10.0)
    ahead = FakePeer(0, log)
    ahead._now = 5.0
    with pytest.raises(SimulationError, match="already at"):
        run_lockstep([ahead], 1.0)


# ----------------------------------------------------------------------
# One round: quantum=None runs every peer straight to ``until``
# ----------------------------------------------------------------------
def test_one_round_hands_every_peer_the_whole_budget_in_peer_order():
    log: List[str] = []
    observed: List[tuple] = []
    peers = [FakePeer(i, log, events_per_round=3) for i in range(3)]
    assert run_lockstep(
        peers, 7.5, quantum=None, max_events=100,
        on_round=lambda deadline, wall, results:
        observed.append((deadline, len(results)))) == 7.5
    assert log == ["begin0", "begin1", "begin2",
                   "finish0", "finish1", "finish2"]
    assert [peer.budgets for peer in peers] == [[100]] * 3
    assert all(peer.now() == 7.5 for peer in peers)
    assert observed == [(7.5, 3)]


def test_one_round_drains_every_peer_before_raising_the_first_failure():
    log: List[str] = []
    first, second = ValueError("shard 1 broke"), ValueError("shard 2 broke")
    peers = [FakePeer(0, log),
             FakePeer(1, log, fail_with=first),
             FakePeer(2, log, fail_with=second)]
    with pytest.raises(ValueError, match="shard 1 broke"):
        run_lockstep(peers, 5.0, quantum=None)
    assert log == ["begin0", "begin1", "begin2",
                   "finish0", "finish1", "finish2"]


def test_one_round_aggregates_budget_exhaustion_fleet_wide():
    log: List[str] = []
    peers = [
        FakePeer(0, log, fail_with=RoundBudgetError(
            "budget", now=0.5, events=7, pending=4)),
        FakePeer(1, log),
    ]
    with pytest.raises(SimulationError,
                       match="fleet event budget exhausted") as excinfo:
        run_lockstep(peers, 5.0, quantum=None, max_events=7)
    message = str(excinfo.value)
    assert "shard 0: t=0.500000 pending=4" in message
    assert "shard 1: t=5.000000 pending=1" in message


def test_one_round_lets_a_peer_already_past_until_skip():
    ahead, behind = ticking_runtime(period=1.0), ticking_runtime(period=1.0)
    ahead.run(until=7.0)
    before = ahead.events_processed
    assert run_lockstep([RuntimePeer(ahead), RuntimePeer(behind)], 5.0,
                        quantum=None) == 5.0
    assert (ahead.now, ahead.events_processed) == (7.0, before)
    assert behind.now == 5.0


# ----------------------------------------------------------------------
# RuntimePeer: the per-round body
# ----------------------------------------------------------------------
def test_runtime_peer_skips_a_round_it_is_already_past():
    runtime = ticking_runtime(period=1.0)
    runtime.run(until=5.0)
    before = runtime.events_processed
    peer = RuntimePeer(runtime)
    peer.begin_round(3.0, None)
    result = peer.finish_round()
    assert runtime.now == 5.0
    assert (result.now, result.events) == (5.0, 0)
    assert runtime.events_processed == before


def test_runtime_peer_raises_round_budget_error_with_shard_state():
    runtime = ticking_runtime(period=1.0)
    peer = RuntimePeer(runtime)
    peer.begin_round(10.0, 3)
    with pytest.raises(RoundBudgetError) as excinfo:
        peer.finish_round()
    error = excinfo.value
    assert error.events == 3
    assert error.now == runtime.now
    assert error.pending == runtime.pending_events > 0


def test_runtime_peer_lets_other_simulation_errors_through():
    class Broken(Environment):
        def run(self, until=None, max_events=None):
            raise SimulationError("kernel fault")

    peer = RuntimePeer(Broken())
    peer.begin_round(1.0, 5)
    with pytest.raises(SimulationError, match="kernel fault") as excinfo:
        peer.finish_round()
    assert not isinstance(excinfo.value, RoundBudgetError)


def test_lockstep_drives_runtime_peers_and_fake_peers_together():
    log: List[str] = []
    first, second = ticking_runtime(period=1.0), ticking_runtime(period=0.5)
    fake = FakePeer(1, log, events_per_round=2)
    rounds: List[tuple] = []
    assert run_lockstep(
        [RuntimePeer(first), fake, RuntimePeer(second)], 3.0,
        quantum=1.0, max_events=100,
        on_round=lambda deadline, wall, results: rounds.append(
            (deadline, [result.now for result in results],
             sum(result.events for result in results)))) == 3.0
    assert first.now == second.now == fake.now() == 3.0
    assert [(deadline, clocks) for deadline, clocks, _ in rounds] == [
        (float(t), [float(t)] * 3) for t in (1, 2, 3)]
    # One allowance for the whole fleet, whatever the peers are: each
    # round every peer is handed what the rounds before it left.
    spent = [events for _, _, events in rounds]
    assert fake.budgets == [100, 100 - spent[0],
                            100 - spent[0] - spent[1]]
    assert sum(spent) == (first.events_processed
                          + second.events_processed + 3 * 2)
