"""A thread-hosted shard worker: the test double of ``ShardWorker``.

It serves the same ``_serve`` loop over the same ``multiprocessing``
pipe, on a daemon thread of the test process instead of a worker
process. The whole worker protocol runs (pickled commands, replayed
construction, rehydrated errors) without paying a process start per
shard, so the identity sweeps can afford many fleets.

Tests get it with :func:`thread_workers`, which makes every fleet built
inside the block host its workers on threads. Only construction reads
the patched name: a fleet keeps its handles after the block ends.
"""

from __future__ import annotations

import multiprocessing
import threading
from contextlib import contextmanager, nullcontext
from typing import ContextManager, Iterator

from repro.core.config import EngineConfig
from repro.shard import coordinator
from repro.shard.parallel import ShardWorker, _serve


class ThreadWorker(ShardWorker):
    """A :class:`ShardWorker` whose shard is served by a thread.

    A thread has no ``terminate`` or ``kill``: a thread worker still
    alive after ``close()``'s shutdown wait is a failing test.
    """

    def __init__(self, index: int, config: EngineConfig,
                 seed: int) -> None:
        self.index = index
        self.dead = False
        self._conn, child = multiprocessing.Pipe()
        self._worker = threading.Thread(
            target=_serve, args=(child, config, seed),
            name=f"repro-shard-{index}", daemon=True)
        self._worker.start()


@contextmanager
def thread_workers() -> Iterator[None]:
    """Host the workers of every fleet built in the block on threads."""
    process_worker = coordinator.ShardWorker
    coordinator.ShardWorker = ThreadWorker
    try:
        yield
    finally:
        coordinator.ShardWorker = process_worker


def workers_on(backend: str) -> ContextManager[None]:
    """Where a test's worker fleets run: ``"thread"`` (the double) or
    ``"process"`` (worker processes, the only ``src/`` transport)."""
    return thread_workers() if backend == "thread" else nullcontext()
