"""Named, reproducible seeds.

Every stochastic component of the simulation (sensor noise, packet loss,
workload generation, the SA scheduler ...) seeds its own
``random.Random`` from a named child seed derived deterministically
from a single master seed. Experiments are therefore exactly
repeatable, and changing one component's draws does not perturb any
other component.
"""

from __future__ import annotations

import hashlib


def derive_seed(master_seed: int, stream_name: str) -> int:
    """Deterministically derive a child seed from (master, name).

    Uses SHA-256 rather than ``hash()`` so results are stable across
    interpreter runs and platforms.
    """
    digest = hashlib.sha256(f"{master_seed}:{stream_name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


#: Component streams that predate seed derivation and consumed the raw
#: master seed directly. Their draws are pinned so every golden trace
#: and benchmark gate recorded before unification stays byte-identical;
#: new components must NOT be added here — they get derived substreams.
LEGACY_ROOT_STREAMS = frozenset({"comm:transport"})


def component_seed(master_seed: int, component: str) -> int:
    """Seed for a named top-level engine component's RNG stream.

    The single routing point for every component RNG the engine
    constructs. Streams listed in :data:`LEGACY_ROOT_STREAMS` keep the
    raw master seed (a compatible derivation — changing them would
    invalidate all recorded goldens for no behavioural gain); all other
    components draw from independent :func:`derive_seed` substreams.
    """
    if component in LEGACY_ROOT_STREAMS:
        return master_seed
    return derive_seed(master_seed, component)

