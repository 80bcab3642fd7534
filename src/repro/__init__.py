"""Aorta: a pervasive query processing framework.

Reproduction of *Systems Support for Pervasive Query Processing*
(Wenwei Xue, Qiong Luo, Lionel M. Ni - ICDCS 2005). Applications issue
SQL-style action-embedded continuous queries over a network of
heterogeneous simulated devices; the engine provides uniform
communication, device synchronization and cost-based action workload
scheduling.

Quickstart::

    from repro import AortaEngine, Environment, PanTiltZoomCamera, \
        SensorMote, Point

    env = Environment()
    engine = AortaEngine(env)
    engine.add_device(PanTiltZoomCamera(env, "cam1", Point(0, 0)))
    engine.add_device(SensorMote(env, "mote1", Point(5, 5)))
    engine.execute('''CREATE AQ snapshot AS
        SELECT photo(c.ip, s.loc, "photos/admin")
        FROM sensor s, camera c
        WHERE s.accel_x > 500 AND coverage(c.id, s.loc)''')
    engine.start()
    engine.run(until=60.0)
"""

from repro.core.config import EngineConfig, RetryPolicy
from repro.core.engine import AortaEngine
from repro.devices import (
    DeviceHealthTracker,
    HealthPolicy,
    MobilePhone,
    PanTiltZoomCamera,
    SensorMote,
    SensorStimulus,
)
from repro.geometry import Point
from repro.overload import OverloadPolicy, TierRate
from repro.shard import (
    DeviceSpec,
    HashPlacement,
    RegionPlacement,
    ShardedEngine,
)
from repro.sim import Environment

__version__ = "1.0.0"

__all__ = [
    "AortaEngine",
    "DeviceHealthTracker",
    "DeviceSpec",
    "EngineConfig",
    "Environment",
    "HashPlacement",
    "HealthPolicy",
    "MobilePhone",
    "OverloadPolicy",
    "PanTiltZoomCamera",
    "Point",
    "RegionPlacement",
    "RetryPolicy",
    "SensorMote",
    "ShardedEngine",
    "SensorStimulus",
    "TierRate",
    "__version__",
]
