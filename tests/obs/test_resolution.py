"""The hot path resolves no series per call.

Resolving a series (``metric_key``: validate the name, sort the labels)
costs more than the write it serves, so every call site resolves once —
at construction, or on the first write of a label value — and holds the
series. Pinned the way ``tests/sim/test_kernel.py`` pins the kernel's
calls per timer wait: the number of resolutions may grow with the
number of distinct series, never with how long the engine runs.
"""

import pytest

from repro import EngineConfig, SensorStimulus
from repro.obs import metrics
from tests.core.conftest import FIGURE_1, build_lab

#: Virtual seconds of the first half; the second half repeats it.
HALF = 60.0
#: Seconds between two stimuli on one mote (several polls apart).
PERIOD = 10.0


@pytest.mark.parametrize("observability", [False, True])
def test_resolutions_do_not_grow_with_run_length(observability,
                                                 monkeypatch):
    engine = build_lab(config=EngineConfig(observability=observability))
    engine.execute(FIGURE_1)
    for index in range(1, 4):
        mote = engine.comm.registry.get(f"mote{index}")
        for start in range(0, int(2 * HALF), int(PERIOD)):
            mote.inject(SensorStimulus("accel_x", start=start + index,
                                       duration=3.0, magnitude=900.0))
    resolved = []
    key = metrics.metric_key

    def counting_key(name, labels):
        resolved.append(name)
        return key(name, labels)

    monkeypatch.setattr(metrics, "metric_key", counting_key)
    engine.start()
    engine.run(until=HALF)
    first = len(resolved)
    serviced = engine.statistics()["requests_serviced"]
    engine.run(until=2 * HALF)

    # The second half did the same work again...
    assert engine.statistics()["requests_serviced"] >= 2 * serviced > 0
    # ...through the series the first half resolved, one resolution
    # per series (a family resolves a label value on its first write).
    assert resolved[first:] == []
    assert 0 < first <= len(engine.obs.registry)
