"""What a smoke repetition costs in counted work.

Each workload runs one smoke repetition through the benchmark's own
harness (imported read-only, as ``tests/test_e2e_outcomes.py`` does).

Whatever is derived from static state is computed once per static
epoch (DESIGN decision 35): the candidate sets, the scan's static
columns, the aim memo and the block resolver's aim columns. So a
``dispatch_heavy`` repetition reads each device's static row a fixed
number of times and asks each camera for one scalar aim per distinct
target, however many batches and requests there are.

A polled row or a probe costs its kernel timers and no message
construction (DESIGN decision 36): messages are immutable, so the scan
builds one ``read_attributes`` message per (device, columns) and the
prober one (ping, status) pair per device. The kernel events pin the
virtual timeline itself: a cut in the row path that moved one event
would move these counts.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.devices.base import Device
from repro.devices.camera import PanTiltZoomCamera
from repro.network.message import Message
from repro.sim import Environment

from tests.test_e2e_outcomes import SECONDS, SEED, build, repetition

#: ``Device.static_attributes`` calls: the 48 cameras' rows for the
#: candidate sets and the 16 motes' for the scan, once each in a run
#: whose fleet is built before its first poll, plus one per photo
#: executed (102), where ``fill_device_arguments`` binds ``camera_ip``.
STATIC_ATTRIBUTES = 166
#: ``PanTiltZoomCamera.aim_memoized`` calls: the block resolver's aim
#: columns, one per camera and distinct target, 48 x 16.
AIM_MEMOIZED = 768


#: Kernel events (``Environment.step`` calls) per smoke repetition.
KERNEL_EVENTS = {"dispatch_heavy": 13084, "match_heavy": 11799,
                 "mixed_faulty": 17040}
#: ``Message`` constructions per smoke repetition: the scanned motes'
#: reads plus two per probed camera (``dispatch_heavy``: 16 + 2 x 48).
MESSAGES = {"dispatch_heavy": 112, "match_heavy": 24, "mixed_faulty": 40}


def counter(monkeypatch):
    """A ``Counter`` and a function that makes it count calls to one
    method."""
    calls = Counter()

    def counted(cls, name):
        method = getattr(cls, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(cls, name, wrapper)

    return calls, counted


def test_dispatch_heavy_reads_static_state_once_per_epoch(monkeypatch):
    calls, counted = counter(monkeypatch)
    counted(Device, "static_attributes")
    counted(PanTiltZoomCamera, "aim_memoized")
    job = build("dispatch_heavy", SEED, SECONDS, smoke=True)
    result = repetition(job, SEED)
    assert not result["problems"], result["problems"]
    assert calls["static_attributes"] == STATIC_ATTRIBUTES
    assert calls["aim_memoized"] == AIM_MEMOIZED


@pytest.mark.parametrize("workload", sorted(KERNEL_EVENTS))
def test_the_row_path_builds_each_message_once(monkeypatch, workload):
    calls, counted = counter(monkeypatch)
    counted(Environment, "step")
    counted(Message, "__post_init__")
    job = build(workload, SEED, SECONDS, smoke=True)
    result = repetition(job, SEED)
    assert not result["problems"], result["problems"]
    assert calls["step"] == KERNEL_EVENTS[workload]
    assert calls["__post_init__"] == MESSAGES[workload]
