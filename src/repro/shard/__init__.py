"""Sharded multi-engine fleets (DESIGN.md decision 13).

A shard is a whole :class:`~repro.core.engine.AortaEngine` over its
own runtime — scheduler, dispatcher, comm layer, continuous executor
and all. :class:`ShardedEngine` partitions the device space across N
shards by a :class:`PlacementPolicy` and keeps only routing and
aggregation at the coordinator, so fleet capacity scales with shard
count while each shard's scheduling problem shrinks to its partition.

Enable with ``EngineConfig(shards=N)``::

    from repro.shard import ShardedEngine

    fleet = ShardedEngine(config=EngineConfig(shards=8), seed=0)

The coordinator reaches every shard through one :class:`ShardHandle`
(:mod:`repro.shard.parallel`): the shard itself when it is hosted
in-process, a :class:`ShardWorker` — the shard in its own worker
process or thread, for true parallel execution — with
``EngineConfig(parallel=True)``; device factories must then be
picklable, which :class:`DeviceSpec` makes easy.
"""

from repro.shard.coordinator import DeviceFactory, ShardedEngine
from repro.shard.parallel import DeviceSpec, ShardHandle, ShardWorker
from repro.shard.placement import (
    HashPlacement,
    PlacementPolicy,
    RegionPlacement,
)

__all__ = [
    "DeviceFactory",
    "DeviceSpec",
    "HashPlacement",
    "PlacementPolicy",
    "RegionPlacement",
    "ShardHandle",
    "ShardWorker",
    "ShardedEngine",
]
