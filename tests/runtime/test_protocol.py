"""One runtime class, and what the engine builds from its config."""

from __future__ import annotations

import pytest

import repro
from repro import AortaEngine, EngineConfig
from repro.errors import AortaError
from repro.sim import Environment
from repro.sim.base import BaseRuntime


def test_virtual_runtime_is_the_environment():
    # BaseRuntime is a second name for the class (benchmarks patch it
    # through it), not a second class.
    assert BaseRuntime is Environment is repro.Environment
    assert Environment().time_scale == 0.0


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------
def test_engine_defaults_to_the_virtual_backend():
    env = AortaEngine().env
    assert type(env) is Environment
    assert env.time_scale == 0.0


def test_engine_config_selects_the_realtime_backend():
    engine = AortaEngine(config=EngineConfig(time_scale=0.25))
    assert engine.env.time_scale == 0.25


def test_explicit_runtime_wins_over_config():
    env = Environment()
    config = EngineConfig(time_scale=0.5)
    assert AortaEngine(env, config=config).env is env
    assert env.time_scale == 0.0


def test_config_rejects_unknown_runtime_and_negative_scale():
    with pytest.raises(TypeError):
        EngineConfig(runtime="asyncio")  # there is no backend to pick
    with pytest.raises(AortaError, match="time_scale"):
        EngineConfig(time_scale=-1.0)
