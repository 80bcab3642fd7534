"""What a batch costs in static-state reads and scalar aims, counted.

Whatever is derived from static state is computed once per static
epoch (DESIGN decision 35): the candidate sets, the scan's static
columns, the aim memo and the block resolver's aim columns. So one
``dispatch_heavy`` smoke repetition, run through the benchmark's own
harness (imported read-only, as ``tests/test_e2e_outcomes.py`` does),
reads each device's static row a fixed number of times and asks each
camera for one scalar aim per distinct target, however many batches
and requests there are.
"""

from __future__ import annotations

from collections import Counter

from repro.devices.base import Device
from repro.devices.camera import PanTiltZoomCamera
from repro.scheduling import HAVE_NUMPY

from tests.test_e2e_outcomes import SECONDS, SEED, build, repetition

#: ``Device.static_attributes`` calls: the 48 cameras' rows for the
#: candidate sets and the 16 motes' for the scan, once each in a run
#: whose fleet is built before its first poll, plus one per photo
#: executed (102), where ``fill_device_arguments`` binds ``camera_ip``.
STATIC_ATTRIBUTES = 166
#: ``PanTiltZoomCamera.aim_memoized`` calls with numpy: the block
#: resolver's aim columns, one per camera and distinct target, 48 x 16.
#: Without numpy the scalar estimate asks per (request, camera), so
#: that leg pins nothing here.
AIM_MEMOIZED = 768


def test_dispatch_heavy_reads_static_state_once_per_epoch(monkeypatch):
    calls = Counter()

    def counted(cls, name):
        method = getattr(cls, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(cls, name, wrapper)

    counted(Device, "static_attributes")
    counted(PanTiltZoomCamera, "aim_memoized")
    job = build("dispatch_heavy", SEED, SECONDS, smoke=True)
    result = repetition(job, SEED)
    assert not result["problems"], result["problems"]
    assert calls["static_attributes"] == STATIC_ATTRIBUTES
    if HAVE_NUMPY:
        assert calls["aim_memoized"] == AIM_MEMOIZED
