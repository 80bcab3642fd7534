"""The Runtime protocol, the factory, and engine config selection."""

from __future__ import annotations

import pytest

from repro import AortaEngine, EngineConfig
from repro.errors import AortaError, SimulationError
from repro.runtime import (
    RealtimeRuntime,
    Runtime,
    VirtualRuntime,
    create_runtime,
)
from repro.sim import Environment


def test_both_backends_satisfy_the_protocol():
    assert isinstance(Environment(), Runtime)
    assert isinstance(RealtimeRuntime(time_scale=0), Runtime)


def test_virtual_runtime_is_the_environment():
    assert VirtualRuntime is Environment


def test_factory_builds_by_name():
    assert create_runtime("virtual").backend_name == "virtual"
    runtime = create_runtime("realtime", time_scale=0.25, strict=True)
    assert runtime.backend_name == "realtime"
    assert runtime.time_scale == 0.25
    assert runtime.strict


def test_factory_rejects_unknown_backends():
    with pytest.raises(SimulationError, match="unknown runtime"):
        create_runtime("quantum")


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------
def test_engine_defaults_to_the_virtual_backend():
    assert AortaEngine().env.backend_name == "virtual"


def test_engine_config_selects_the_realtime_backend():
    config = EngineConfig(runtime="realtime", time_scale=0.0)
    engine = AortaEngine(config=config)
    assert engine.env.backend_name == "realtime"
    assert engine.env.time_scale == 0.0


def test_explicit_runtime_wins_over_config():
    env = Environment()
    config = EngineConfig(runtime="realtime")
    assert AortaEngine(env, config=config).env is env


def test_config_rejects_unknown_runtime_and_negative_scale():
    with pytest.raises(AortaError, match="unknown runtime"):
        EngineConfig(runtime="asyncio")
    with pytest.raises(AortaError, match="time_scale"):
        EngineConfig(time_scale=-1.0)
