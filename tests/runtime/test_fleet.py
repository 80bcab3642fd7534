"""The round loop and a shard's round.

``run_lockstep`` is pinned here with fake shards — broadcast then
collect in shard order, the lowest-indexed failure raised after every
reply is drained, the round observer, input checks — and over real
:class:`ShardHost` shards, whose ``begin_round`` / ``finish_round``
pair is the one definition of what a shard does in a round.
"""

from typing import List, Optional

import pytest

from repro.core.config import EngineConfig
from repro.errors import SimulationError
from repro.shard.coordinator import run_lockstep
from repro.shard.parallel import RoundResult, ShardHost


def ticking_host(period: float = 1.0) -> ShardHost:
    """A bare in-process shard with one recurring timer."""
    host = ShardHost(EngineConfig(), seed=0)
    env = host.engine.env

    def clock(env):
        while True:
            yield env.timeout(period)

    env.process(clock(env))
    return host


# ----------------------------------------------------------------------
# The barrier: fake shards
# ----------------------------------------------------------------------
class FakePeer:
    """A scripted shard handle that jumps to each round's deadline."""

    def __init__(self, index: int, log: List[str],
                 fail_with: Optional[BaseException] = None) -> None:
        self.index = index
        self.log = log
        self.fail_with = fail_with
        self.deadlines: List[float] = []
        self.now = 0.0

    def call(self, op: str) -> float:
        assert op == "now"
        return self.now

    def begin_round(self, deadline: float) -> None:
        self.log.append(f"begin{self.index}")
        self.deadlines.append(deadline)

    def finish_round(self) -> RoundResult:
        self.log.append(f"finish{self.index}")
        if self.fail_with is not None:
            raise self.fail_with
        self.now = self.deadlines[-1]
        return RoundResult(busy_seconds=0.001, commits={})


def test_parallel_rounds_broadcast_then_collect_in_peer_order():
    log: List[str] = []
    peers = [FakePeer(i, log) for i in range(3)]
    assert run_lockstep(peers, 2.0, quantum=1.0) == 2.0
    # Every round submits to all peers before collecting from any, and
    # collection order is peer order regardless of completion order.
    assert log == ["begin0", "begin1", "begin2",
                   "finish0", "finish1", "finish2"] * 2
    assert all(peer.now == 2.0 for peer in peers)


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


def test_parallel_rounds_invoke_the_round_observer():
    observed: List[int] = []
    log: List[str] = []
    peers = [FakePeer(i, log) for i in range(2)]
    run_lockstep(peers, 2.0, quantum=1.0,
                 on_round=lambda wall, results: observed.append(
                     len(results)))
    assert observed == [2, 2]
    assert peers[0].deadlines == [1.0, 2.0]
    # One round straight to ``until``: one observation.
    run_lockstep(peers, 7.5, quantum=None,
                 on_round=lambda wall, results: observed.append(
                     len(results)))
    assert observed == [2, 2, 2]
    assert peers[1].deadlines == [1.0, 2.0, 7.5]


def test_parallel_rounds_validate_like_lockstep():
    log: List[str] = []
    with pytest.raises(SimulationError, match="quantum"):
        run_lockstep([FakePeer(0, log)], 10.0, quantum=0.0)
    with pytest.raises(SimulationError, match="at least one"):
        run_lockstep([], 10.0, quantum=None)
    ahead = FakePeer(0, log)
    ahead.now = 5.0
    with pytest.raises(SimulationError, match="already at"):
        run_lockstep([ahead], 1.0, quantum=None)


# ----------------------------------------------------------------------
# One round: quantum=None runs every shard straight to ``until``
# ----------------------------------------------------------------------
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


def test_one_round_lets_a_peer_already_past_until_skip():
    ahead, behind = ticking_host(period=1.0), ticking_host(period=1.0)
    ahead.engine.env.run(until=7.0)
    before = ahead.engine.env.events_processed
    assert run_lockstep([ahead, behind], 5.0, quantum=None) == 5.0
    assert (ahead.engine.env.now,
            ahead.engine.env.events_processed) == (7.0, before)
    assert behind.engine.env.now == 5.0


# ----------------------------------------------------------------------
# ShardHost: the per-round body
# ----------------------------------------------------------------------
def test_runtime_peer_skips_a_round_it_is_already_past():
    host = ticking_host(period=1.0)
    env = host.engine.env
    env.run(until=5.0)
    before = env.events_processed
    host.begin_round(3.0)
    assert host.finish_round().commits == {}
    assert env.now == 5.0
    assert env.events_processed == before


def test_runtime_peer_lets_other_simulation_errors_through():
    # A round raises what the shard's runtime raised.
    host = ShardHost(EngineConfig(), seed=0)
    env = host.engine.env

    def broken(env):
        yield env.timeout(1.0)
        raise SimulationError("kernel fault")

    env.process(broken(env))
    host.begin_round(5.0)
    with pytest.raises(SimulationError, match="kernel fault"):
        host.finish_round()
    assert env.now == 1.0


def test_lockstep_drives_runtime_peers_and_fake_peers_together():
    log: List[str] = []
    first, second = ticking_host(period=1.0), ticking_host(period=0.5)
    fake = FakePeer(1, log)
    clocks: List[List[float]] = []
    assert run_lockstep(
        [first, fake, second], 3.0, quantum=1.0,
        on_round=lambda wall, results: clocks.append(
            [first.engine.env.now, fake.now, second.engine.env.now])) == 3.0
    assert clocks == [[float(t)] * 3 for t in (1, 2, 3)]
    assert fake.deadlines == [1.0, 2.0, 3.0]
