"""Unit tests for the discrete-event kernel."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.sim
from repro.errors import SimulationError
from repro.sim import Environment
from tests.sim.fake_wall import FakeWall, PacedEnvironment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(2.5)

    env.process(proc(env))
    end = env.run()
    assert end == pytest.approx(2.5)


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-0.1)


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc(env):
        yield env.timeout(1.0)
        times.append(env.now)
        yield env.timeout(2.0)
        times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [pytest.approx(1.0), pytest.approx(3.0)]


def test_two_processes_interleave():
    env = Environment()
    order = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        order.append((name, env.now))

    env.process(proc(env, "slow", 3.0))
    env.process(proc(env, "fast", 1.0))
    env.run()
    assert order == [("fast", 1.0), ("slow", 3.0)]


def test_same_time_events_are_fifo():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(1.0)
        order.append(name)

    for name in ("a", "b", "c"):
        env.process(proc(env, name))
    env.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(10.0)

    env.process(proc(env))
    end = env.run(until=4.0)
    assert end == 4.0
    assert len(env._queue) == 1


def test_run_until_past_raises():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


NAN = float("nan")


def test_a_nan_timeout_is_refused_at_the_call():
    """A NaN delay compares false against everything, so it would pass
    a ``delay < 0`` check and corrupt the heap order: the kernel would
    fail later, elsewhere, moving the clock backwards."""
    env = Environment()
    with pytest.raises(SimulationError, match="nan"):
        env.timeout(NAN)
    assert len(env._queue) == 0


def test_processes_waiting_nan_fail_at_their_yield_not_at_a_later_step():
    env = Environment()
    woke = []

    def sleeper(delay):
        yield env.timeout(delay)
        woke.append(delay)

    for delay in (1.0, NAN, 2.0, 0.5):
        env.process(sleeper(delay))
    with pytest.raises(SimulationError, match="timeout delay nan"):
        env.run()
    assert env.now == 0.0  # refused while the processes started
    env.run()
    assert woke == [0.5, 1.0, 2.0]


def test_run_until_nan_is_refused_and_leaves_the_clock():
    env = Environment()
    with pytest.raises(SimulationError, match="nan"):
        env.run(until=NAN)
    assert env.now == 0.0


def test_process_returns_value_via_yield():
    """A generator's return value arrives at the ``yield`` of the
    fan-out it is a member of (nothing waits on a process)."""
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(1.0)
        return 42

    def parent(env):
        [value] = yield env.fan_out([child(env)])
        results.append(value)

    env.process(parent(env))
    env.run()
    assert results == [42]


def test_timeout_carries_value():
    """A timeout's value, which its waiter resumes with, is ``None``."""
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(1.0)
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == [None]


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    seen = []

    def waiter(env):
        value = yield gate
        seen.append((env.now, value))

    def opener(env):
        yield env.timeout(2.0)
        gate.succeed("open")

    env.process(waiter(env))
    env.process(opener(env))
    env.run()
    assert seen == [(2.0, "open")]


def test_event_trigger_twice_rejected():
    env = Environment()
    gate = env.event()
    gate.succeed(1)
    with pytest.raises(SimulationError):
        gate.succeed(2)


def test_yield_non_event_rejected():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()


def test_waiting_on_already_triggered_event():
    env = Environment()
    gate = env.event()
    gate.succeed("early")
    seen = []

    def waiter(env):
        value = yield gate
        seen.append(value)

    env.process(waiter(env))
    env.run()
    assert seen == ["early"]


def test_yielding_a_process_raises_simulation_error():
    """A process is not an event: nothing can wait on one (a fan-out is
    the one join)."""
    env = Environment()

    def child(env):
        yield env.timeout(1.0)

    def parent(env):
        yield env.process(child(env))

    env.process(parent(env))
    with pytest.raises(SimulationError, match="must yield Event objects"):
        env.run()


def test_an_uncaught_process_exception_leaves_run_at_its_instant():
    env = Environment()
    ran = []

    def failing(env):
        yield env.timeout(2.0)
        raise ValueError("boom")

    def bystander(env):
        yield env.timeout(3.0)
        ran.append(env.now)

    env.process(failing(env))
    env.process(bystander(env))
    with pytest.raises(ValueError, match="boom"):
        env.run(until=10.0)
    assert env.now == 2.0
    assert ran == []
    assert len(env._queue) == 1  # the bystander's timer


# ----------------------------------------------------------------------
# The kernel's contract: firing order and cost per timer wait
# ----------------------------------------------------------------------
@settings(deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                          st.integers(min_value=0, max_value=2)),
                max_size=30))
def test_events_fire_sorted_by_time_priority_insertion(entries):
    env = Environment()
    fired = []
    # schedule() enqueues at now: run the clock to each entry's time
    # first, and schedule that time's entries in index order.
    for delay in sorted({delay for delay, _ in entries}):
        env.run(until=delay)
        for index, (at, priority) in enumerate(entries):
            if at == delay:
                event = env.event()
                # Scheduled by hand: succeed() fixes the priority.
                event.callbacks.append(
                    lambda _event, index=index: fired.append(
                        (env.now, index)))
                env.schedule(event, priority=priority)
    env.run()
    expected = sorted(range(len(entries)),
                      key=lambda index: (*entries[index], index))
    assert fired == [(entries[index][0], index) for index in expected]


def _kernel_calls_per_timer_wait(start, end_events):
    """Python calls inside ``repro/sim`` per ``yield env.timeout()`` plus
    one ``env.now`` read, for a generator started by ``start(env,
    generator)`` and run under a bounded ``run()``; the generator's end
    costs ``end_events`` kernel events."""
    waits = 1000
    env = Environment()

    def proc():
        for _ in range(waits):
            yield env.timeout(1.0)
            env.now

    kernel_dir = str(Path(repro.sim.__file__).parent)
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(kernel_dir):
            calls += 1

    start(env, proc())
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        env.run(until=waits + 1.0)
    finally:
        sys.setprofile(previous)
    assert env.events_processed == 1 + waits + end_events  # start + waits
    return calls / waits


def test_a_timer_wait_costs_at_most_eight_kernel_calls():
    """A host-independent cost per unit of work (4: timeout, Timeout,
    step, _resume; 7 when events went through Event and schedule, 16
    when clock and queue were wrapper classes). A process's end is no
    event."""
    assert _kernel_calls_per_timer_wait(Environment.process, 0) <= 8


def test_a_fan_out_members_timer_wait_costs_what_a_processs_does():
    """A member is resumed straight from its timer's callback: the same
    four calls, within the same budget of eight. Its end is the
    fan-out's completion."""
    assert _kernel_calls_per_timer_wait(
        lambda env, generator: env.fan_out([generator]), 1) <= 8


def test_an_unpaced_timer_wait_costs_four_kernel_calls():
    """An unpaced runtime never calls the pacing code: a wait is
    timeout, Timeout, step and _resume (five with a no-op pacing hook
    called on every step)."""
    assert _kernel_calls_per_timer_wait(Environment.process, 0) < 4.5
    assert _kernel_calls_per_timer_wait(
        lambda env, generator: env.fan_out([generator]), 1) < 4.5


# ----------------------------------------------------------------------
# Fan-outs: several generators started at once, awaited as one event
# ----------------------------------------------------------------------
def _sleeper(env, name, delay, trace, result=None):
    trace.append((env.now, name, "start"))
    yield env.timeout(delay)
    trace.append((env.now, name, "end"))
    return result


def test_fan_out_results_come_back_in_input_order():
    env = Environment()
    trace = []

    def caller(env):
        results = yield env.fan_out(
            _sleeper(env, name, delay, trace, result=name)
            for name, delay in (("slow", 3.0), ("fast", 1.0), ("mid", 2.0)))
        trace.append((env.now, results))

    env.process(caller(env))
    env.run()
    assert [entry for entry in trace if entry[-1] == "end"] == [
        (1.0, "fast", "end"), (2.0, "mid", "end"), (3.0, "slow", "end")]
    assert trace[-1] == (3.0, ["slow", "fast", "mid"])


def test_an_empty_fan_out_is_born_done_and_costs_nothing():
    env = Environment()
    fan_out = env.fan_out([])
    assert fan_out.triggered and fan_out.value == []
    assert len(env._queue) == 0
    seen = []

    def caller(env):
        seen.append((yield env.fan_out([])))

    env.process(caller(env))
    env.run()
    assert seen == [[]]
    assert env.events_processed == 2  # the caller's start and resume


def _tie_order_trace(env, fanned):
    """Who runs when, at one instant, around two generators started as
    one fan-out or as two processes between a process created just
    before and one created just after. Only the fan-out is waited on;
    the processes run unwaited."""
    trace = []

    def caller(env):
        env.process(_sleeper(env, "before", 1.0, trace))
        members = [_sleeper(env, name, 1.0, trace, result=name)
                   for name in ("first", "second")]
        if fanned:
            waited = env.fan_out(members)
        else:
            for member in members:
                env.process(member)
        env.process(_sleeper(env, "after", 1.0, trace))
        if fanned:
            results = yield waited
            trace.append((env.now, "caller", results))

    env.process(caller(env))
    env.run()
    return trace


def test_fan_out_keeps_the_tie_order_of_processes_created_in_a_row():
    env, unwaited = Environment(), Environment()
    trace = _tie_order_trace(env, fanned=True)
    assert trace[:-1] == _tie_order_trace(unwaited, fanned=False)
    assert [name for _, name, _ in trace] == [
        "before", "first", "second", "after",
        "before", "first", "second", "after", "caller"]
    assert trace[-1] == (1.0, "caller", ["first", "second"])
    # The caller's and two processes' starts, four timers, and the
    # fan-out's start and completion, where two processes' starts cost
    # two.
    assert env.events_processed == 3 + 4 + 2
    assert unwaited.events_processed == 5 + 4


def test_fan_out_behaves_the_same_on_the_realtime_backend_at_scale_zero():
    # Paced at scale 1.0 against a fake wall clock: pacing sleeps the
    # run's span and changes nothing else.
    virtual, wall = Environment(), FakeWall()
    paced = PacedEnvironment(wall)
    assert (_tie_order_trace(paced, fanned=True)
            == _tie_order_trace(virtual, fanned=True))
    assert paced.events_processed == virtual.events_processed
    assert paced.now == virtual.now == 1.0
    assert sum(wall.sleeps) == pytest.approx(1.0)


def test_a_members_exception_is_handed_back_not_raised_by_step():
    env = Environment()
    boom = ValueError("boom")

    def failing(env):
        yield env.timeout(1.0)
        raise boom

    fan_out = env.fan_out([failing(env), _sleeper(env, "ok", 2.0, [], 7)])
    while env._queue:
        env.step()
    assert fan_out.value == [boom, 7]


def test_a_fan_out_refuses_a_non_generator_like_a_process():
    env = Environment()

    def body(env):
        yield env.timeout(1.0)

    for start in (env.process, lambda member: env.fan_out([body(env), member])):
        with pytest.raises(SimulationError, match="did you call the function"):
            start(body)
    assert len(env._queue) == 0


def test_a_member_yielding_a_processed_event_resumes_at_once():
    env = Environment()
    done, also_done = env.event(), env.event()
    done.succeed("early")
    also_done.succeed("earlier")
    env.run()
    seen = []

    def member(env):
        seen.append((yield done))
        seen.append((yield also_done))
        return env.now

    fan_out = env.fan_out([member(env)])
    before = env.events_processed
    env.run()
    assert seen == ["early", "earlier"]
    assert fan_out.value == [0.0]
    # The start, two urgent immediates and the completion.
    assert env.events_processed - before == 4
