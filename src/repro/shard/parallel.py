"""Shard hosts and the handles that reach them.

A shard is one :class:`ShardHost` — an engine plus the operations a
fleet asks of it — and the coordinator reaches it through a
:class:`ShardHandle`: ``call(op, *args)``, ``begin_round`` /
``finish_round``, ``close()``, ``dead`` and ``engine``. Where the host
lives is the handle's business, not the coordinator's. Hosted in the coordinator's process, a
:class:`ShardHost` is its own handle and its methods are called
directly. :class:`ShardWorker` moves it into a **worker** (a child
process, forked on Linux) and sends the same operation names down a
pipe — which is what buys wall-clock speedup from added shards: an
in-process fleet steps every shard on one thread, a worker fleet
computes each bounded-skew round concurrently between barriers.

Three design rules keep a worker fleet byte-identical to an
in-process one (``tests/shard/test_parallel.py`` pins it):

* **Replayed construction, not pickled engines.** An engine is a web
  of generators, open spans and runtime-bound devices — none of it
  picklable, all of it a pure function of its construction commands.
  So a worker builds its :class:`ShardHost` in-process from ``(config,
  derived seed)`` and replays the coordinator's construction commands
  (:class:`DeviceSpec` factories, AQ registrations) in order. Same
  commands, same seeds, same engine.
* **Deterministic barriers.** :func:`~repro.shard.coordinator.run_lockstep`
  collects round replies in shard-index order, never arrival order, so
  everything downstream of a barrier is independent of scheduling
  noise.
* **Capacity ledgers synced at the barrier.** With overload control
  on, each shard admits against its own
  :class:`~repro.overload.admission.CapacityLedger`, a view of the
  fleet's commitments as of the last barrier plus its own since. Its
  commits ride back with the round's :class:`RoundResult`, and the
  coordinator folds them and syncs every shard before the next round
  (DESIGN.md decision 30) — nothing crosses a pipe mid-round, so
  within-round interleaving cannot show.

A worker starts by ``fork`` where the platform has it
(:data:`START_METHOD`): it shares the coordinator's imported modules
copy-on-write and goes straight to building its shard, so a fleet's
set-up pays no interpreter start, import or compile per worker.
Elsewhere it is ``spawn``. A forked child inherits every pipe end the
coordinator holds, so each :class:`ShardWorker` has its coordinator end
closed in every later-forked child: a worker must see EOF once the
coordinator's end closes or the coordinator dies (DESIGN.md decision
15).

The worker protocol is a plain ``(op, args)`` tuple stream over a
duplex pipe, one synchronous reply per command: the ``op_*`` methods
of :class:`ShardHost` by name, plus ``shutdown``. Everything crossing
the pipe must pickle — which is exactly why device factories are
:class:`DeviceSpec` values (an importable callable plus its arguments)
instead of closures, and why a worker replies ``None`` where the host
returned an object bound to its runtime.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import multiprocessing.util
import pickle
import sys
import time
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, List, Optional, Protocol, Tuple,
)

import repro.errors as _errors
from repro.errors import AortaError, ShardingError
from repro.core.config import EngineConfig
from repro.core.engine import AortaEngine
from repro.devices.base import Device
from repro.obs.dump import dump_engine
from repro.obs.metrics import MetricsRegistry
from repro.overload import CapacityLedger

#: How a worker process starts: ``fork`` on Linux (no interpreter
#: start, import or compile per worker), ``spawn`` where fork is
#: absent or unsafe with system frameworks (Windows, macOS).
START_METHOD = "fork" if sys.platform.startswith("linux") else "spawn"

#: Seconds the coordinator waits for a worker's ready handshake
#: (process start + engine construction) before declaring it dead.
READY_TIMEOUT = 60.0

#: Seconds a closing coordinator waits for a worker to exit cleanly
#: before escalating to terminate/kill.
SHUTDOWN_TIMEOUT = 10.0


class DeviceSpec:
    """A picklable device factory: ``factory(env, *args, **kwargs)``.

    A worker fleet replays device construction inside its workers, so
    factories must survive pickling — which closures and
    lambdas do not. A spec names an importable callable (usually the
    device class itself) plus the arguments after ``env``::

        fleet.add_device("cam1", DeviceSpec(
            PanTiltZoomCamera, "cam1", Point(0, 0), facing=180.0))

    Specs are ordinary callables, so they work identically on an
    in-process fleet — one scenario builder can feed both kinds.
    """

    __slots__ = ("factory", "args", "kwargs")

    def __init__(self, factory: Callable[..., Any], /,
                 *args: Any, **kwargs: Any) -> None:
        self.factory = factory
        self.args = args
        self.kwargs = kwargs

    def __call__(self, env: Any) -> Any:
        return self.factory(env, *self.args, **self.kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [getattr(self.factory, "__name__", repr(self.factory))]
        parts += [repr(arg) for arg in self.args]
        parts += [f"{key}={value!r}" for key, value in self.kwargs.items()]
        return f"DeviceSpec({', '.join(parts)})"

    def __getstate__(self) -> Tuple[Any, ...]:
        return (self.factory, self.args, self.kwargs)

    def __setstate__(self, state: Tuple[Any, ...]) -> None:
        self.factory, self.args, self.kwargs = state


# ----------------------------------------------------------------------
# The shard, and how the coordinator reaches it
# ----------------------------------------------------------------------
@dataclass
class RoundResult:
    """What one shard reports back from one round."""

    #: Wall-clock seconds the shard spent computing the round.
    busy_seconds: float
    #: Capacity the shard committed since its ledger's last sync, by
    #: window (empty with overload control off).
    commits: Dict[int, float]


class ShardHandle(Protocol):
    """How the coordinator reaches one shard, wherever it is hosted.

    ``call`` runs one :class:`ShardHost` operation and returns its
    result — or, from a worker, what of it survives the pipe. The
    round pair lets :func:`~repro.shard.coordinator.run_lockstep`
    drive the shard's clock: ``begin_round`` only *submits* a round,
    so the loop can start every shard before waiting on any, and
    ``finish_round`` blocks until it completes, returning its
    :class:`RoundResult` or raising what the round raised.
    """

    #: Set once the shard can no longer be reached; a fleet with a dead
    #: handle has lost a partition and is torn down.
    dead: bool

    @property
    def engine(self) -> AortaEngine:
        """The shard's engine, where this process can reach it."""
        ...

    def call(self, op: str, *args: Any) -> Any:
        """Run operation ``op`` on the shard and return its result."""
        ...

    def begin_round(self, deadline: float) -> None:
        """Submit one round to ``deadline`` without waiting for it."""
        ...

    def finish_round(self) -> RoundResult:
        """Block until the submitted round completes."""
        ...

    def close(self) -> None:
        """Release whatever hosts the shard; idempotent."""
        ...


class ShardHost:
    """One shard: an engine plus the operations a fleet asks of it.

    The one implementation behind every handle. Hosted in the
    coordinator's process it *is* the handle — ``call`` is a method
    lookup, results are the live objects (the built ``Device``, the
    registration handles) and rounds run on the calling thread:
    ``begin_round`` records the deadline, ``finish_round`` computes
    the round, so in-process shards step one after another in shard
    order. Hosted in a worker, :func:`_serve` feeds it the commands a
    :class:`ShardWorker` sends.
    """

    dead = False

    def __init__(self, config: EngineConfig, seed: int) -> None:
        self.engine = AortaEngine(config=config, seed=seed)
        #: The capacity ledger admission charges (``None`` with overload
        #: control off): each round ships its unsynced commits.
        self._ledger: Optional[CapacityLedger] = (
            None if self.engine.overload is None
            else self.engine.overload.admission.capacity)
        self._deadline = self.engine.env.now
        self._run_span: Any = None
        self._runs = self.engine.obs.registry.counter("engine.runs")

    def call(self, op: str, *args: Any) -> Any:
        return getattr(self, f"op_{op}")(*args)

    def close(self) -> None:
        """Nothing to release: the garbage collector owns the engine."""

    def begin_round(self, deadline: float) -> None:
        self._deadline = deadline

    def finish_round(self) -> RoundResult:
        """Run to the recorded deadline, unless already past it: an
        earlier run may have taken this shard further, and ``run`` with
        a non-decreasing deadline is the only call the loop issues."""
        env = self.engine.env
        started = time.perf_counter()
        if env.now <= self._deadline:
            env.run(until=self._deadline)
        return RoundResult(
            busy_seconds=time.perf_counter() - started,
            commits={} if self._ledger is None else self._ledger.unsynced())

    # Each handler is one operation of call(), looked up by name, so
    # adding an operation is adding a method.
    def op_add_device(self, device_id: str, factory: Any) -> Device:
        device = factory(self.engine.env)
        if device.device_id != device_id:
            raise ShardingError(
                f"factory for {device_id!r} built device "
                f"{device.device_id!r}; placement and routing key on "
                f"the declared id")
        self.engine.add_device(device)
        return device

    def op_inject(self, device_id: str, stimulus: Any) -> None:
        device = self.engine.comm.registry.get(device_id)
        inject = getattr(device, "inject", None)
        if inject is None:
            raise ShardingError(
                f"device {device_id!r} ({device.device_type}) does not "
                f"accept injected stimuli")
        inject(stimulus)

    def op_execute(self, sql: str) -> Any:
        return self.engine.execute(sql)

    def op_create_aq(self, sql: str, priority: int,
                     deadline_seconds: Optional[float]) -> Any:
        return self.engine.create_aq(
            sql, priority=priority, deadline_seconds=deadline_seconds)

    def op_drop_aq(self, name: str) -> None:
        self.engine.continuous.drop(name)

    def op_install_code(self, library_path: str,
                        implementation: Any) -> None:
        self.engine.install_action_code(library_path, implementation)

    def op_install_profile(self, profile_path: str, profile: Any,
                           resolver: Any, kwargs: Dict[str, Any]) -> None:
        self.engine.install_action_profile(profile_path, profile,
                                           resolver, **kwargs)

    def op_submit(self, request: Any) -> None:
        operator = self.engine.dispatcher.operator_for(
            self.engine.actions.get(request.action_name))
        self.engine.dispatcher.submit(operator, request)

    def op_start(self) -> None:
        self.engine.start()

    def op_now(self) -> float:
        return self.engine.env.now

    def op_run_begin(self) -> None:
        # One engine.run span wraps the whole coordinated run, entered
        # before the first round.
        self._run_span = self.engine.obs.span("engine.run")
        self._run_span.__enter__()

    def op_run_round(self, deadline: float) -> RoundResult:
        self.begin_round(deadline)
        return self.finish_round()

    def op_sync_ledger(self, devices: int,
                       committed: Optional[Dict[int, float]]) -> None:
        assert self._ledger is not None
        self._ledger.sync(devices, committed)

    def op_run_end(self, completed: bool) -> None:
        # AortaEngine.run's rule: the span closes on every path out,
        # engine.runs counts the runs that reached their deadline.
        self._run_span.__exit__(None, None, None)
        if completed:
            self._runs.inc()

    def op_statistics(self) -> Dict[str, Any]:
        return self.engine.statistics()

    def op_levels(self) -> Dict[str, Any]:
        return self.engine.live_levels()

    def op_device_report(self) -> Dict[str, Dict[str, Any]]:
        return self.engine.device_report()

    def op_query_report(self) -> List[Dict[str, Any]]:
        return self.engine.query_report()

    def op_completed(self) -> List[Any]:
        return self.engine.completed_requests

    def op_metrics(self) -> MetricsRegistry:
        return self.engine.obs.registry

    def op_dump(self) -> Dict[str, Any]:
        return dump_engine(self.engine)


# ----------------------------------------------------------------------
# The worker side
# ----------------------------------------------------------------------
#: Operations whose result is bound to the host's runtime (the built
#: Device, RegisteredQuery / ActionDefinition handles) and cannot cross
#: a pipe: a worker replies ``None`` for them, except EXPLAIN's
#: rendered plan, which is a string.
_PROCESS_LOCAL_RESULTS = frozenset({"add_device", "execute", "create_aq"})


def _serve(conn: multiprocessing.connection.Connection,
           config: EngineConfig, seed: int) -> None:
    """The worker main loop: build the shard, then serve commands.

    Runs as the target of the worker process. Every command gets
    exactly one reply: ``("ok", value)``, or ``("error",
    (type_name, message))`` for a handler failure — handler failures
    do *not* kill the worker, so admission refusals and lookup errors
    propagate to the coordinator exactly like in-process exceptions.
    """
    try:
        try:
            host = ShardHost(config, seed)
        except BaseException as error:  # noqa: BLE001 - reported, then exit
            conn.send(("error", (type(error).__name__, str(error))))
            return
        conn.send(("ok", "ready"))
        while True:
            try:
                op, args = conn.recv()
            except (EOFError, OSError):
                return
            if op == "shutdown":
                conn.send(("ok", None))
                return
            try:
                value = host.call(op, *args)
                if op in _PROCESS_LOCAL_RESULTS \
                        and not isinstance(value, str):
                    value = None
                conn.send(("ok", value))
            except Exception as error:  # noqa: BLE001 - shipped to caller
                conn.send(("error", (type(error).__name__, str(error))))
    finally:
        conn.close()


# ----------------------------------------------------------------------
# The coordinator side
# ----------------------------------------------------------------------
def _rehydrate(index: int, name: str, message: str) -> AortaError:
    """Rebuild a worker-raised framework error coordinator-side.

    Known :mod:`repro.errors` types come back as themselves, so e.g. a
    ``PlanError`` from a worker's ``create_aq`` is caught by the same
    ``except`` clauses as in-process; anything else degrades
    to :class:`ShardingError` naming the shard.
    """
    kind = getattr(_errors, name, None)
    if isinstance(kind, type) and issubclass(kind, AortaError):
        return kind(message)
    return ShardingError(f"shard {index}: {name}: {message}")


class ShardWorker:
    """The handle on a shard hosted in a worker process.

    Owns the worker and its command pipe: :meth:`call` is one
    synchronous round trip, the split-phase :meth:`begin_round` /
    :meth:`finish_round` pair lets the barrier loop start every worker
    before waiting on any, and transport failures — a dead process, a
    broken pipe — become :class:`ShardingError` naming the shard
    instead of hanging the barrier. Construction is split-phase for
    the same reason: the constructor only starts the worker, and
    :meth:`await_ready` — required before the first command — blocks
    on its ready handshake, so the workers' start-up costs overlap.
    """

    def __init__(self, index: int, config: EngineConfig,
                 seed: int) -> None:
        self.index = index
        self.dead = False
        self._conn, child = multiprocessing.Pipe()
        self._worker = multiprocessing.get_context(START_METHOD).Process(
            target=_serve, args=(child, config, seed),
            name=f"repro-shard-{index}", daemon=True)
        # A child forked from here on, this worker included, holds a
        # copy of the coordinator's end and must close it: otherwise
        # the worker never sees EOF when the coordinator closes its end
        # or dies, and lives on.
        multiprocessing.util.register_after_fork(
            self, ShardWorker._close_inherited_end)
        self._worker.start()
        # The parent's copy of the child-held end must close so a dead
        # worker surfaces as EOF instead of a hang.
        child.close()

    def _close_inherited_end(self) -> None:
        """In a forked child: drop the copy of the coordinator's end."""
        self._conn.close()

    def await_ready(self) -> None:
        """Block until the worker has built its shard (or failed to)."""
        if not self._conn.poll(READY_TIMEOUT):
            self._fail("handshake")
        self._recv("handshake")

    @property
    def engine(self) -> AortaEngine:
        raise ShardingError(
            f"shard {self.index} lives in a worker process: its "
            f"engine and devices cannot be reached from the coordinator "
            f"process; interact through inject()/submit() and read "
            f"per-shard data from shard_statistics()/shard_dumps()/"
            f"metrics()")

    # -- transport ------------------------------------------------------
    def _fail(self, op: str) -> "ShardingError":
        self.dead = True
        raise ShardingError(
            f"shard {self.index} worker died during {op!r}; the fleet "
            f"cannot continue without its partition")

    def _send(self, op: str, args: Tuple[Any, ...]) -> None:
        if self.dead:
            self._fail(op)
        try:
            self._conn.send((op, args))
        except (pickle.PicklingError, AttributeError, TypeError) as error:
            # Connection.send pickles before writing, so a pickling
            # failure leaves the pipe clean and the worker alive.
            raise ShardingError(
                f"command {op!r} for shard {self.index} is not "
                f"picklable ({error}); worker fleets need importable "
                f"payloads — use DeviceSpec or module-level callables "
                f"instead of closures") from error
        except (BrokenPipeError, ConnectionResetError, EOFError,
                OSError):
            self._fail(op)

    def _recv(self, op: str) -> Any:
        try:
            status, payload = self._conn.recv()
        except (BrokenPipeError, ConnectionResetError, EOFError,
                OSError):
            self._fail(op)
        if status == "ok":
            return payload
        name, message = payload
        raise _rehydrate(self.index, name, message)

    def call(self, op: str, *args: Any) -> Any:
        """One synchronous command round trip."""
        self._send(op, args)
        return self._recv(op)

    # -- rounds ---------------------------------------------------------
    def begin_round(self, deadline: float) -> None:
        self._send("run_round", (deadline,))

    def finish_round(self) -> RoundResult:
        return self._recv("run_round")

    # -- lifecycle ------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._worker.is_alive()

    def close(self) -> None:
        """Shut the worker down; escalate if it does not cooperate."""
        if not self.dead:
            try:
                self._conn.send(("shutdown", ()))
            except (BrokenPipeError, ConnectionResetError, OSError,
                    pickle.PicklingError):
                pass
        worker = self._worker
        worker.join(timeout=SHUTDOWN_TIMEOUT)
        if self.alive:  # pragma: no cover - stuck worker
            worker.terminate()
            worker.join(timeout=SHUTDOWN_TIMEOUT)
            if self.alive:
                worker.kill()
                worker.join(timeout=SHUTDOWN_TIMEOUT)
        self.dead = True
        self._conn.close()
