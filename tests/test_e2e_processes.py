"""Which processes a faulty end-to-end run starts, counted.

A process is a loop (DESIGN decisions 33 and 34): a one-shot wait is a
timer, and a join is a fan-out. ``mixed_faulty`` exercises every
fault path — outages, stragglers, a request storm, lock leases and
load shedding — so one smoke repetition of it, run through the
benchmark's own harness (imported read-only, as
``tests/test_e2e_outcomes.py`` does), must start no generator but the
four loops.
"""

from __future__ import annotations

from collections import Counter

from repro.sim import Environment

from tests.test_e2e_outcomes import SECONDS, SEED, build, repetition

#: The generators that may run as processes: each loops until its run
#: ends.
LOOPS = {"Dispatcher._run", "ContinuousQueryExecutor._run",
         "LoadShedder._run", "FailureInjector._run_storm"}


def test_mixed_faulty_starts_only_the_four_loops(monkeypatch):
    started = Counter()
    process = Environment.process

    def counted(runtime, generator):
        started[generator.__qualname__] += 1
        return process(runtime, generator)

    monkeypatch.setattr(Environment, "process", counted)
    job = build("mixed_faulty", SEED, SECONDS, smoke=True)
    result = repetition(job, SEED)
    assert not result["problems"], result["problems"]
    assert started == Counter(LOOPS)
