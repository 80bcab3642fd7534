"""Exclusive wall-clock attribution per engine layer, from outside.

The traced repetition patches the public callables at each layer
boundary (``LAYER_CALLS``) with a timer and a layer stack. Time is
always charged to the top of the stack, so a parent waiting on a child
call and a generator suspended in ``yield`` are never billed: the
numbers are *self* times and sum to at most the wall of ``run()``.

Generators are timed per resume. A sim process started through
``runtime.process()`` that is not already a wrapped layer call is
billed to the layer owning the generator's source file
(``PROCESS_LAYERS``), which covers the private process bodies
(``_service_queue``, ``_acquire_row``, injector episodes) without
naming them. ``runtime.step`` sits at the bottom of every stack, so the
event loop's own cost separates from the process code it resumes.

Nothing here is imported by the engine; a patched name that no longer
exists is reported in ``absent`` and its time stays with the caller.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: (module, class, method, layer, kind). ``gen`` methods are generator
#: functions timed per resume; ``call`` methods are plain calls.
LAYER_CALLS: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("repro.query.predicate_index", "PredicateIndex", "match",
     "query.index", "call"),
    ("repro.query.functions", "FunctionRegistry", "call",
     "query.function", "call"),
    ("repro.core.continuous", "ContinuousQueryExecutor", "poll_once",
     "continuous", "gen"),
    ("repro.comm.scan", "ScanOperator", "scan", "comm.scan", "gen"),
    ("repro.comm.probe", "Prober", "probe_all", "comm.probe", "gen"),
    ("repro.comm.probe", "Prober", "probe", "comm.probe", "gen"),
    ("repro.network.transport", "Connection", "request", "network", "gen"),
    ("repro.network.transport", "Transport", "connect", "network", "gen"),
    ("repro.scheduling.base", "Scheduler", "schedule",
     "scheduling", "call"),
    ("repro.scheduling.incremental", "IncrementalScheduler", "schedule",
     "scheduling", "call"),
    ("repro.cost.model", "CostModel", "estimate", "cost", "call"),
    ("repro.cost.model", "CostModel", "prepare_block", "cost", "call"),
    ("repro.cost.model", "CostModel", "estimate_block", "cost", "call"),
    ("repro.cost.model", "CostModel", "block_post_status", "cost", "call"),
    ("repro.sync.locks", "DeviceLockManager", "acquire", "sync", "gen"),
    ("repro.sync.locks", "DeviceLockManager", "release", "sync", "call"),
    ("repro.core.dispatcher", "Dispatcher", "dispatch_batch",
     "dispatcher", "gen"),
    ("repro.core.dispatcher", "Dispatcher", "submit", "dispatcher", "call"),
    ("repro.actions.action", "ActionDefinition", "execute",
     "devices", "gen"),
    ("repro.devices.base", "Device", "execute", "devices", "gen"),
    ("repro.overload.plane", "OverloadControlPlane", "offer",
     "overload", "call"),
    ("repro.sim.base", "BaseRuntime", "step", "sim", "call"),
)

#: Source-path fragment -> layer, for processes started through
#: ``runtime.process()``. First match wins.
PROCESS_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("/repro/core/dispatcher", "dispatcher"),
    ("/repro/core/continuous", "continuous"),
    ("/repro/comm/scan", "comm.scan"),
    ("/repro/comm/probe", "comm.probe"),
    ("/repro/network/", "network"),
    ("/repro/devices/", "devices"),
    ("/repro/overload/", "overload"),
    ("/repro/sync/", "sync"),
)

#: Layer of process code that matches nothing above.
OTHER = "other"


class LayerTracer:
    """Layer stack + per-layer exclusive seconds + per-call counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        #: layer -> exclusive wall seconds.
        self.self_s: Dict[str, float] = defaultdict(float)
        #: "Class.method" -> completed-or-started call count.
        self.calls: Dict[str, int] = defaultdict(int)
        #: "Class.method" -> summed runtime seconds between a
        #: generator's first resume and its return.
        self.virtual_s: Dict[str, float] = defaultdict(float)
        #: Patched names that no longer exist in the engine.
        self.absent: List[str] = []
        self._stack: List[str] = []
        self._mark = 0.0
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- the stack ------------------------------------------------------
    def _enter(self, layer: str) -> None:
        now = self._clock()
        if self._stack:
            self.self_s[self._stack[-1]] += now - self._mark
        self._stack.append(layer)
        self._mark = now

    def _exit(self) -> None:
        now = self._clock()
        self.self_s[self._stack.pop()] += now - self._mark
        self._mark = now

    @property
    def depth(self) -> int:
        """Open layers; 0 whenever the engine is not running."""
        return len(self._stack)

    # -- wrappers -------------------------------------------------------
    def _wrap_call(self, function: Callable[..., Any], layer: str,
                   key: str) -> Callable[..., Any]:
        enter, leave, calls = self._enter, self._exit, self.calls

        def traced(*args: Any, **kwargs: Any) -> Any:
            calls[key] += 1
            enter(layer)
            try:
                return function(*args, **kwargs)
            finally:
                leave()
        return traced

    def _drive(self, generator: Any, layer: str, key: str, env: Any):
        """Resume ``generator`` under ``layer``, one timed slice per send."""
        enter, leave = self._enter, self._exit
        self.calls[key] += 1
        started = env.now if env is not None else 0.0
        value: Any = None
        error: Any = None
        try:
            while True:
                enter(layer)
                try:
                    if error is not None:
                        yielded = generator.throw(error)
                    else:
                        yielded = generator.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    leave()
                try:
                    value = yield yielded
                    error = None
                except GeneratorExit:
                    raise
                except BaseException as thrown:  # re-thrown into the callee
                    value, error = None, thrown
        finally:
            if env is not None:
                self.virtual_s[key] += env.now - started
            generator.close()

    def _wrap_gen(self, function: Callable[..., Any], layer: str,
                  key: str) -> Callable[..., Any]:
        drive = self._drive

        def traced(*args: Any, **kwargs: Any) -> Any:
            env = getattr(args[0], "env", None) if args else None
            return drive(function(*args, **kwargs), layer, key, env)
        return traced

    def _wrap_process(self, function: Callable[..., Any]
                      ) -> Callable[..., Any]:
        drive, own_code = self._drive, self._drive.__code__

        def process(runtime: Any, generator: Any) -> Any:
            code = getattr(generator, "gi_code", None)
            if code is not None and code is not own_code:
                path = code.co_filename.replace("\\", "/")
                layer = next((name for fragment, name in PROCESS_LAYERS
                              if fragment in path), OTHER)
                generator = drive(generator, layer,
                                  f"process:{layer}", None)
            return function(runtime, generator)
        return process

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Patch every layer boundary that still exists."""
        for module_name, class_name, method, layer, kind in LAYER_CALLS:
            key = f"{class_name}.{method}"
            try:
                owner = getattr(importlib.import_module(module_name),
                                class_name)
                original = owner.__dict__[method]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(key)
                continue
            wrap = self._wrap_gen if kind == "gen" else self._wrap_call
            self._patch(owner, method, wrap(original, layer, key))
        from repro.sim.base import BaseRuntime
        self._patch(BaseRuntime, "process",
                    self._wrap_process(BaseRuntime.__dict__["process"]))

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        """Put every patched attribute back."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)
