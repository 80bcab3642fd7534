"""Keeps eleven descriptions of the tree honest: every definition under
``src/repro`` has a caller that is not a test, every config field has a
second value in use outside ``tests/``, every parameter with a default
is passed by some call outside ``tests/``, no component defaults its
sink, numpy is imported at module level only, no two functions share a
body, a runtime's ``now`` is assigned only by the kernel, a device
channel is checked out in one place, the comm layer starts no process,
only loops start processes (``core/``'s two among them), and DESIGN.md's
module map is the tree."""

import ast
import copy
import dataclasses
import inspect
import re
from fnmatch import fnmatchcase
from functools import lru_cache
from pathlib import Path

import pytest

from repro import EngineConfig, HealthPolicy, RetryPolicy
from repro.core.tracing import EngineTracer
from repro.cost.calibration import Calibrator
from repro.devices import CameraCalibration, MobilePhone, PanTiltZoomCamera
from repro.obs.metrics import Histogram
from repro.overload import OverloadPolicy, TierRate
from repro.profiles.defaults import camera_cost_table
from repro.scheduling import Scheduler, SimulatedAnnealingScheduler
from repro.scheduling.metrics import device_completion_times
from repro.sim import Environment, Timeout

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Where a caller may live. ``tests/`` is not on the list: a name that
#: only a test spells has no job (DESIGN decision 23).
CALLER_TREES = (SRC, ROOT / "examples", ROOT / "benchmarks")

#: The reasons a definition may stay without a caller. "A test uses it"
#: is not one of them.
KINDS = (
    "paper-literal",             # the paper's own mechanism, section cited
    "half of a pair",            # its other half has a caller
    "reference implementation",  # what a property test compares against
    "open ROADMAP item",         # named there as the thing to wire up
    "sole read accessor",        # of state that src/ itself branches on
)

#: Name (``fnmatch`` pattern) -> (kind, reason): what stays although
#: nothing in ``CALLER_TREES`` names it.
KEPT_WITHOUT_A_CALLER = {
    "repro.comm.layer.CommunicationLayer.remove_device": (
        "paper-literal",
        "section 4, devices may leave: the only producer of the `leave` "
        "event that drops a departed device's pooled channel and cached "
        "status"),
    "repro.devices.failures.FailureInjector.schedule_coverage_dropout": (
        "paper-literal",
        "section 4's phone that moves out of coverage, as a fault kind"),
    "repro.profiles.xml_io.*": (
        "paper-literal",
        "section 3.1: catalogs, cost tables and action profiles are XML "
        "text files; three to/from pairs, round-trip tested"),
    "repro.cost.calibration.calibrate_camera": (
        "paper-literal",
        "section 3.1: atomic-operation costs are \"measured by our "
        "homegrown programs\"; this is that program for the camera"),
    "repro.actions.builtins.sendphoto_definition": (
        "paper-literal",
        "section 2.2's CREATE ACTION example with its library and "
        "profile paths; callers outside tests register their own through "
        "the statement"),
    "repro.core.engine.AortaEngine.enable_query": (
        "half of a pair",
        "`disable_query`, which benchmarks/e2e/harness.py calls"),
    "repro.scheduling.problem.StaticCostModel": (
        "reference implementation",
        "sequence-independent costs from an explicit matrix: the special "
        "case whose known bounds and optima the schedulers' property "
        "tests compare against"),
    "repro.scheduling.executor.execute_schedule": (
        "reference implementation",
        "a schedule run as one kernel fan-out of locked device queues: "
        "the makespan `service_makespan`'s arithmetic replay is "
        "property-tested against"),
    "repro.shard.coordinator.ShardedEngine.shard_dumps": (
        "reference implementation",
        "the in-process fleet's per-shard dumps are what a worker "
        "fleet's are compared with; a worker's engine lives in another "
        "process, so its `dump` command is the only way to read one"),
    "repro.devices.health.DeviceHealthTracker.state_of": (
        "sole read accessor",
        "a breaker's CLOSED / OPEN / HALF_OPEN state, which "
        "`allow_candidate` branches on; `quarantined_ids()` cannot show "
        "HALF_OPEN"),
}

_DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _assigns_to_self(node):
    return (isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self")


@lru_cache(maxsize=None)
def _modules():
    """Path -> parsed module, for every file in ``CALLER_TREES``."""
    return {path: ast.parse(path.read_text())
            for tree in CALLER_TREES for path in sorted(tree.rglob("*.py"))}


@lru_cache(maxsize=None)
def _surface():
    """``(uncalled, unread)``: definitions under ``src/repro`` that no
    code in ``CALLER_TREES`` names, and ``self.<attr>`` assignments that
    no code reads.

    Code names something with an identifier, an attribute access or a
    string constant that is one dotted name (``getattr``, a worker RPC
    such as ``_call(index, "submit")`` and the e2e tracer's
    ``LAYER_CALLS`` dispatch by string). Imports, ``__all__`` lists,
    docstrings and comments name nothing, and a ``def`` does not name
    itself. A function or class needs any of the three; a method needs
    an attribute access or a string; an attribute needs a load, which a
    string is only when it is one identifier and not a dict key (a
    ``stats()`` key or a part of a dotted metric name reads nothing).
    Skipped: dunders, ``op_*`` handlers (``Device.execute`` dispatches
    on an f-string), a method that overrides one of a base class in the
    tree (the base's is checked), nested definitions, and the members of
    a class that is itself uncalled.
    """
    modules = _modules()
    identifiers, attributes, loads = set(), set(), set()
    for module in modules.values():
        export_lists = {
            id(node) for statement in module.body
            if isinstance(statement, ast.Assign)
            and any(isinstance(target, ast.Name) and target.id == "__all__"
                    for target in statement.targets)
            for node in ast.walk(statement.value)}
        dict_keys = {id(key) for node in ast.walk(module)
                     if isinstance(node, ast.Dict) for key in node.keys}
        for node in ast.walk(module):
            if isinstance(node, ast.Name):
                identifiers.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if not isinstance(node.ctx, ast.Store):
                    loads.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and id(node) not in export_lists
                  and _DOTTED_NAME.fullmatch(node.value)):
                attributes.update(node.value.split("."))
                if "." not in node.value and id(node) not in dict_keys:
                    loads.add(node.value)

    source = {path: module for path, module in modules.items()
              if SRC in path.parents}
    classes = {}
    for module in source.values():
        for node in module.body:
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append(node)

    def methods_of_bases(cls, seen):
        inherited = set()
        for base in cls.bases:
            name = getattr(base, "id", getattr(base, "attr", None))
            for parent in classes.get(name, ()):
                if id(parent) not in seen:
                    seen.add(id(parent))
                    inherited |= {member.name for member in parent.body
                                  if isinstance(member, ast.FunctionDef)}
                    inherited |= methods_of_bases(parent, seen)
        return inherited

    def skipped(name):
        return name.startswith("op_") or (
            name.startswith("__") and name.endswith("__"))

    named = identifiers | attributes
    uncalled, unread = [], set()
    for path, module in source.items():
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        dotted = ".".join(part for part in parts if part != "__init__")
        for node in module.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in named:
                if not skipped(node.name):
                    uncalled.append(f"{dotted}.{node.name}")
                continue
            if isinstance(node, ast.FunctionDef):
                continue
            overrides = methods_of_bases(node, set())
            uncalled += [
                f"{dotted}.{node.name}.{member.name}" for member in node.body
                if isinstance(member, ast.FunctionDef)
                and not skipped(member.name)
                and member.name not in overrides
                and member.name not in attributes]
            unread |= {
                f"{dotted}.{node.name}.{target.attr}"
                for target in ast.walk(node)
                if _assigns_to_self(target) and target.attr not in loads}
    return sorted(uncalled), sorted(unread)


def _not_kept(names):
    return [name for name in names
            if not any(fnmatchcase(name, pattern)
                       for pattern in KEPT_WITHOUT_A_CALLER)]


def test_every_definition_has_a_caller_outside_tests():
    """Every top-level function, class and method under ``src/repro``,
    public or ``_private``, in every package. Subsumes
    ``test_every_exported_callable_has_a_caller`` below."""
    uncalled, _ = _surface()
    assert _not_kept(uncalled) == []


def test_every_attribute_assigned_is_read_outside_tests():
    """A counter that is only ever incremented is a second statistics
    system with no reader: ``statistics()`` and the metrics registry are
    the two that exist."""
    _, unread = _surface()
    assert _not_kept(unread) == []


def test_the_allow_list_is_short_reasoned_and_not_stale():
    assert len(KEPT_WITHOUT_A_CALLER) <= 12
    for pattern, (kind, reason) in KEPT_WITHOUT_A_CALLER.items():
        assert kind in KINDS and reason, pattern
    flagged = [name for names in _surface() for name in names]
    stale = [pattern for pattern in KEPT_WITHOUT_A_CALLER
             if not any(fnmatchcase(name, pattern) for name in flagged)]
    assert stale == [], "allow-listed names that now have a caller"


@pytest.mark.parametrize("package_name", [
    "repro.comm", "repro.network", "repro.sim", "repro.scheduling"])
def test_every_exported_callable_has_a_caller(package_name):
    """The rule once covered only these packages' exports; it now
    reads the whole-tree verdict for one package (the ids stay, so a
    package is dropped from the list only when it is deleted)."""
    uncalled, _ = _surface()
    assert _not_kept(name for name in uncalled
                     if name.startswith(package_name + ".")) == []


#: The config dataclasses: each field is one independently settable
#: value.
OPTION_CLASSES = (EngineConfig, RetryPolicy, HealthPolicy, OverloadPolicy,
                  TierRate)

#: The reasons a field may stay settable with one value in use. "A test
#: sets it" is not one of them.
OPTION_KINDS = (
    "passed by name by benchmarks/e2e",  # only a benchmark change edits it
    "paper-literal",                     # the section needing a 2nd value
)

#: ``Class.field`` -> (kind, reason): what stays settable although
#: nothing in ``CALLER_TREES`` sets a second value.
KEPT_OPTIONS = {
    "HealthPolicy.failure_threshold": (
        "passed by name by benchmarks/e2e",
        "`mixed_faulty` passes it at its default"),
    "HealthPolicy.backoff_factor": (
        "passed by name by benchmarks/e2e",
        "`mixed_faulty` passes it at its default"),
    "EngineConfig.parallel_backend": (
        "passed by name by benchmarks/e2e",
        "`fleet_sharded` passes \"process\", the one value; the field "
        "goes with ROADMAP item 15"),
}


def _is_literal(node, value):
    try:
        return ast.literal_eval(node) == value
    except (ValueError, TypeError, SyntaxError):
        return False


@lru_cache(maxsize=None)
def _single_valued_options():
    """``Class.field`` for every field of ``OPTION_CLASSES`` that no code
    in ``CALLER_TREES`` sets to anything but its default.

    Code sets a field with a keyword argument in a call to its class
    (outside the class's own module) or to ``replace``, or, for an
    ``EngineConfig`` field, with a string key of a dict literal: that is
    how ``benchmarks/e2e`` keeps a workload's overrides (``Job.config``)
    before splatting them into ``EngineConfig``. A literal equal to the
    field's default sets nothing new; any other expression counts.
    """
    fields = {cls.__name__: {field.name: field
                             for field in dataclasses.fields(cls)}
              for cls in OPTION_CLASSES}
    homes = {cls.__name__: Path(inspect.getsourcefile(cls)).resolve()
             for cls in OPTION_CLASSES}
    varied = set()

    def note(owner, name, value):
        field = fields[owner].get(name)
        if field is not None and not _is_literal(value, field.default):
            varied.add(f"{owner}.{name}")

    for path, module in _modules().items():
        for node in ast.walk(module):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id",
                                 getattr(node.func, "attr", None))
                if callee == "replace":
                    owners = list(fields)
                elif callee in fields and homes[callee] != path:
                    owners = [callee]
                else:
                    continue
                for keyword in node.keywords:
                    for owner in owners:
                        note(owner, keyword.arg, keyword.value)
            elif (isinstance(node, ast.Dict)
                  and homes["EngineConfig"] != path):
                for key, value in zip(node.keys, node.values):
                    if isinstance(key, ast.Constant):
                        note("EngineConfig", key.value, value)
    return sorted(f"{owner}.{name}" for owner, names in fields.items()
                  for name in names if f"{owner}.{name}" not in varied)


def test_every_option_has_a_second_value_outside_tests():
    """The Options rule as a property of the tree (DESIGN decision 24):
    a field every caller leaves at its default is a constant of the
    module that reads it."""
    assert [name for name in _single_valued_options()
            if name not in KEPT_OPTIONS] == []


def test_the_option_allow_list_is_short_reasoned_and_not_stale():
    assert len(KEPT_OPTIONS) <= 3
    for name, (kind, reason) in KEPT_OPTIONS.items():
        assert kind in OPTION_KINDS and reason, name
    stale = sorted(set(KEPT_OPTIONS) - set(_single_valued_options()))
    assert stale == [], "allow-listed fields that now have a second value"


@pytest.mark.parametrize("cls, name", [
    (EngineConfig, name) for name in (
        "poll_interval", "batch_window", "edge_triggered", "pool_capacity",
        "pool_idle_seconds", "status_ttl_seconds", "shard_quantum",
        "status_ttls", "runtime", "scheduler", "scheduler_seed")] + [
    (RetryPolicy, name) for name in (
        "backoff_base", "backoff_factor", "jitter", "max_dispatches",
        "backoff_max")] + [
    (HealthPolicy, "probation_successes")] + [
    (EngineTracer, name) for name in ("max_records", "strict")] + [
    (Environment, "start")] + [
    (OverloadPolicy, name) for name in (
        "registration_rates", "capacity_horizon", "utilization_cap",
        "capacity_protect_tier", "default_service_seconds",
        "shed_interval", "shed_protect_tier")] + [
    (Histogram, "buckets")])
def test_a_constant_is_no_keyword(cls, name):
    """The option rule's verdicts (DESIGN decision 24) left no alias:
    a value that became a constant cannot be passed."""
    with pytest.raises(TypeError):
        cls(**{name: None})


@pytest.mark.parametrize("function, name", [
    (Environment, "wall_clock"), (Environment, "wall_sleep"),
    (Environment.schedule, "delay"), (Environment.timeout, "value"),
    (Timeout, "value"), (Calibrator.fit_fixed, "trials"),
    (CameraCalibration.fixed_photo_seconds, "size"),
    (PanTiltZoomCamera, "mount_height"), (PanTiltZoomCamera, "calibration"),
    (camera_cost_table, "calibration"), (MobilePhone, "mms_support"),
    (device_completion_times, "use_actual"), (Scheduler, "vectorize"),
    (SimulatedAnnealingScheduler, "vectorize")])
def test_a_constant_is_no_parameter(function, name):
    """The parameter rule's verdicts (DESIGN decision 24) left no alias.
    ``test_a_constant_is_no_keyword`` cannot pin a method or a class
    with required positionals, which raise ``TypeError`` either way:
    the signature can."""
    assert name not in inspect.signature(function).parameters


def _optional_parameters(function, is_method):
    """``[(name, position or None)]`` of ``function``'s parameters that
    have a default; ``position`` is the index a positional argument
    lands on (``self`` / ``cls`` not counted), None for keyword-only."""
    arguments = function.args
    positional = [*arguments.posonlyargs, *arguments.args]
    if is_method and not any(getattr(decorator, "id", None) == "staticmethod"
                             for decorator in function.decorator_list):
        positional = positional[1:]
    first_default = len(positional) - len(arguments.defaults)
    optional = [(parameter.arg, index)
                for index, parameter in enumerate(positional)
                if index >= first_default]
    optional += [(parameter.arg, None) for parameter, default in zip(
        arguments.kwonlyargs, arguments.kw_defaults) if default is not None]
    return optional


def _walk_scoped(node, function=None, cls=None):
    """``(node, innermost enclosing def, innermost enclosing class)``
    for every node under ``node``."""
    for child in ast.iter_child_nodes(node):
        yield child, function, cls
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _walk_scoped(child, child, cls)
        elif isinstance(child, ast.ClassDef):
            yield from _walk_scoped(child, None, child)
        else:
            yield from _walk_scoped(child, function, cls)


@lru_cache(maxsize=None)
def _never_passed():
    """``module:Qualified.name(parameter)`` for every parameter with a
    default under ``src/repro`` that no call in ``CALLER_TREES`` passes.

    A call is matched by callee name, as the decision 23 scan matches
    definitions: a function's own name; for ``__init__``, its class's
    name, the name of a subclass that inherits that ``__init__``, a
    ``super().__init__`` in a subclass, or ``cls(...)`` in the class.
    It passes a parameter by keyword, by position, or through ``*`` /
    ``**`` unpacking (which may reach any). A value that is the
    enclosing ``src/`` function's own optional parameter of that name
    is a pass-through: it counts only if that parameter is passed.
    Skipped: ``op_*`` device handlers, which ``Device.execute``
    dispatches on an f-string with the action's arguments as keywords.
    """
    modules = _modules()
    classes, defs = {}, []
    for path, module in modules.items():
        if SRC not in path.parents:
            continue
        for node, _, cls in _walk_scoped(module):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("op_")):
                optional = _optional_parameters(node, cls is not None)
                if optional:
                    defs.append((path, cls, node, optional))

    def base_names(cls):
        return [getattr(base, "id", getattr(base, "attr", None))
                for base in cls.bases]

    def defines_init(cls):
        return any(isinstance(member, ast.FunctionDef)
                   and member.name == "__init__" for member in cls.body)

    def init_owner(name):
        """The class whose ``__init__`` a call of class ``name`` runs."""
        while name in classes and not defines_init(classes[name]):
            bases = [base for base in base_names(classes[name])
                     if base in classes]
            if not bases:
                return None
            name = bases[0]
        return name if name in classes else None

    calls = {}
    for path, module in modules.items():
        for node, function, cls in _walk_scoped(module):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", None))
            if (name == "__init__" and isinstance(func.value, ast.Call)
                    and getattr(func.value.func, "id", None) == "super"
                    and cls is not None):
                owners = {init_owner(base) for base in base_names(cls)}
                keys = [("__init__", owner) for owner in owners if owner]
            elif name == "cls" and cls is not None:
                keys = [("__init__", init_owner(cls.name))]
            elif name in classes:
                keys = [("__init__", init_owner(name))]
            else:
                keys = [(name, None)]
            for key in keys:
                calls.setdefault(key, []).append((node, function))

    key_of = {}
    for path, cls, function, optional in defs:
        if cls is not None and function.name == "__init__":
            key_of[id(function)] = ("__init__", cls.name)
        else:
            key_of[id(function)] = (function.name, None)
    optional_of = {id(function): {name for name, _ in optional}
                   for _, _, function, optional in defs}

    def value_passed(call, name, position):
        for keyword in call.keywords:
            if keyword.arg == name:
                return keyword.value
            if keyword.arg is None:
                return keyword.value
        if position is not None:
            for index, argument in enumerate(call.args):
                if isinstance(argument, ast.Starred):
                    return argument
                if index == position:
                    return argument
        return None

    # (def id, parameter) -> the pass-throughs that would pass it
    direct, through = set(), {}
    for path, cls, function, optional in defs:
        for name, position in optional:
            for call, caller in calls.get(key_of[id(function)], ()):
                value = value_passed(call, name, position)
                if value is None:
                    continue
                if (isinstance(value, ast.Name) and caller is not None
                        and value.id in optional_of.get(id(caller), ())):
                    through.setdefault((id(function), name), []).append(
                        (id(caller), value.id))
                else:
                    direct.add((id(function), name))
    passed, grew = set(direct), True
    while grew:
        grew = False
        for target, sources in through.items():
            if target not in passed and any(source in passed
                                            for source in sources):
                passed.add(target)
                grew = True

    def qualified(path, cls, function):
        owner = f"{cls.name}." if cls is not None else ""
        return f"{path.relative_to(SRC)}:{owner}{function.name}"

    return sorted(f"{qualified(path, cls, function)}({name})"
                  for path, cls, function, optional in defs
                  for name, _ in optional
                  if (id(function), name) not in passed)


#: The reasons a parameter may stay although no call in
#: ``CALLER_TREES`` passes it. "A test passes it" is not one of them.
PARAMETER_KINDS = (
    "CLI seam",                   # the console entry point's argv
    "paper-named device model",   # PAPER.md names the knob
)

#: ``module:Qualified.name(parameter)`` -> (kind, reason): what stays a
#: parameter although nothing in ``CALLER_TREES`` passes it.
KEPT_PARAMETERS = {
    "__main__.py:main(argv)": (
        "CLI seam",
        "`python -m repro` reads `sys.argv`; a caller that embeds the "
        "CLI passes its own words"),
    "devices/sensor.py:SensorMote.__init__(packet_loss_rate)": (
        "paper-named device model",
        "PAPER.md's mote has a \"lossy radio (configurable "
        "packet-loss)\". Its `radio_delivers` draw stays at rate 0: "
        "deleting the draw would shift the mote's noise stream and move "
        "virtual time"),
}


def test_every_optional_parameter_is_passed_by_some_caller():
    """The option rule for every signature (DESIGN decision 24): a
    default that every caller takes is a constant, and the branch the
    other value selects has no caller. A test is not a caller."""
    assert [name for name in _never_passed()
            if name not in KEPT_PARAMETERS] == []


def test_the_parameter_allow_list_is_short_reasoned_and_not_stale():
    assert len(KEPT_PARAMETERS) <= 2
    for name, (kind, reason) in KEPT_PARAMETERS.items():
        assert kind in PARAMETER_KINDS and reason, name
    stale = sorted(set(KEPT_PARAMETERS) - set(_never_passed()))
    assert stale == [], "allow-listed parameters that now have a caller"


#: The parameters that carry the engine's one sink.
SINK_PARAMETERS = ("obs", "tracer")


def test_no_component_defaults_its_sink():
    """The engine's one ``Observability`` is handed to every component
    (DESIGN decision 23): no ``obs`` or ``tracer`` parameter has a
    default to fall back on a private sink, and only ``Observability``
    builds an ``EngineTracer``."""
    defaulted, tracers = [], []
    for path, module in _modules().items():
        if SRC not in path.parents:
            continue
        for node, function, cls in _walk_scoped(module):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaulted += [
                    f"{path.relative_to(SRC)}:{node.name}({name})"
                    for name, _ in _optional_parameters(node, cls is not None)
                    if name in SINK_PARAMETERS]
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(
                      node.func, "attr", None)) == "EngineTracer"):
                tracers.append(f"{path.relative_to(SRC)}:"
                               f"{getattr(cls, 'name', '')}."
                               f"{getattr(function, 'name', '')}")
    assert defaulted == []
    assert tracers == ["obs/spans.py:Observability.__init__"]


def test_numpy_is_imported_at_module_level():
    """numpy is a dependency of the package, so no module under
    ``src/repro`` imports it lazily inside a function, behind a ``try``
    or under a condition: an optional numpy leg does not come back."""
    nested = sorted(
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path, module in _modules().items() if SRC in path.parents
        for node in ast.walk(module)
        if node not in module.body
        and (any(alias.name.split(".")[0] == "numpy"
                 for alias in node.names) if isinstance(node, ast.Import)
             else isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "numpy"))
    assert nested == []


def _normalized_body(function):
    """``ast.dump`` of a function's body with its docstring dropped, its
    parameters renamed by position and bare references to its own name
    renamed (so recursion matches), or None for a body of fewer than two
    statements: a one-line delegation is not worth a shared home."""
    body = function.body
    if (isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if len(body) < 2:
        return None
    arguments = function.args
    parameters = [*arguments.posonlyargs, *arguments.args,
                  *filter(None, [arguments.vararg]), *arguments.kwonlyargs,
                  *filter(None, [arguments.kwarg])]
    renames = {parameter.arg: f"_parameter_{index}"
               for index, parameter in enumerate(parameters)}
    renames[function.name] = "_itself"
    module = ast.Module(body=copy.deepcopy(body), type_ignores=[])
    for node in ast.walk(module):
        if isinstance(node, ast.Name) and node.id in renames:
            node.id = renames[node.id]
    return ast.dump(module)


def _functions(node, prefix):
    """``(qualified name, def)`` for every function and method under
    ``node``, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _functions(child, name)
        else:
            yield from _functions(child, prefix)


def _shared_bodies():
    """Groups of functions under ``src/repro`` whose normalized bodies
    are equal."""
    groups = {}
    for path, module in _modules().items():
        if SRC not in path.parents:
            continue
        dotted = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        for name, function in _functions(module, dotted):
            body = _normalized_body(function)
            if body is not None:
                groups.setdefault(body, []).append(name)
    return sorted(names for names in groups.values() if len(names) > 1)


def test_no_two_functions_share_a_body():
    """A body written twice is a helper with two homes: one of them
    imports the other, or both move to a shared base."""
    assert _shared_bodies() == []


def test_only_the_kernel_assigns_a_runtimes_now():
    """``Environment.now`` is a plain attribute for speed; what the
    read-only property used to enforce is this convention: no source
    outside ``sim/base.py`` assigns an attribute called ``now``."""
    assignment = re.compile(r"\.now\s*(?:[-+*/]|//)?=(?!=)")
    offenders = {
        (str(path.relative_to(SRC)), line.strip())
        for path in SRC.rglob("*.py") if path != SRC / "sim" / "base.py"
        for line in path.read_text().splitlines()
        if assignment.search(line)}
    assert offenders == set()


#: The channel calls: ``Connection.request`` and the pool's checkout
#: and return.
CHANNEL_CALLS = ("request", "checkout", "acquire", "release", "discard")

#: Receivers in ``src/`` of a call spelled like a channel call that is
#: not one: device locks, sets, shed queues and a scheduling problem.
NOT_A_CHANNEL = {"lock", "locks", "_lock_for", "_recovered_tokens",
                 "_attached_queries", "operator", "operators", "problem"}


def _channel_calls():
    """``(path under src/repro, innermost enclosing function, receiver,
    method)`` for every call ``<receiver>.<method>(...)`` with a method
    in ``CHANNEL_CALLS``; the receiver is the last name before the dot
    (``self.pool.acquire`` -> ``pool``, ``operators[i].discard`` ->
    ``operators``)."""
    calls = set()
    for path, module in _modules().items():
        if SRC not in path.parents:
            continue
        enclosing = {}     # outer functions come first, inner ones win
        for name, function in _functions(module, ""):
            enclosing.update((id(node), name)
                             for node in ast.walk(function))
        for node in ast.walk(module):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in CHANNEL_CALLS):
                continue
            receiver = node.func.value
            while isinstance(receiver, (ast.Subscript, ast.Call)):
                receiver = getattr(receiver, "value",
                                   getattr(receiver, "func", None))
            calls.add((str(path.relative_to(SRC)),
                       enclosing.get(id(node), "<module>"),
                       getattr(receiver, "id",
                               getattr(receiver, "attr", None)),
                       node.func.attr))
    return calls


def test_one_exchange_checks_channels_out():
    """``Transport.exchange`` is the one place a device channel is
    checked out, used and handed back (DESIGN decision 31): nothing else
    in ``src/`` calls ``Connection.request`` or the pool's ``checkout``
    / ``release`` / ``discard``. A new call spelled like one that is
    not one names its receiver in ``NOT_A_CHANNEL``."""
    calls = _channel_calls()
    home = {(name, f"{receiver}.{method}")
            for path, name, receiver, method in calls
            if path == "network/transport.py"}
    assert home == {(".Transport.exchange", call) for call in (
        "pool.checkout", "pool.release", "pool.discard",
        "connection.request")}
    elsewhere = {(path, receiver) for path, _, receiver, _ in calls
                 if path != "network/transport.py"}
    assert sorted(entry for entry in elsewhere
                  if entry[1] not in NOT_A_CHANNEL) == []
    stale = NOT_A_CHANNEL - {receiver for _, receiver in elsewhere}
    assert stale == set(), "NOT_A_CHANNEL names a receiver no longer used"


def test_the_comm_layer_starts_no_process():
    """A scan's rows and a batch's probes are the members of one kernel
    fan-out each (DESIGN decision 32): nothing under ``comm/`` calls
    ``.process(``, so a process per row or per probe cannot grow
    back."""
    spawns = sorted(
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path, module in _modules().items()
        if SRC / "comm" in path.parents
        for node in ast.walk(module)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "process")
    assert spawns == []


def _process_starters(package):
    """``Class.method`` (or top-level function) owning each
    ``.process(`` call in the modules under ``package``, sorted."""
    spawners = []
    for path, module in _modules().items():
        if package not in path.parents:
            continue
        owners = [(f"{node.name}.{getattr(item, 'name', '<body>')}", item)
                  for node in module.body if isinstance(node, ast.ClassDef)
                  for item in node.body]
        owners += [(getattr(node, "name", "<module>"), node)
                   for node in module.body
                   if not isinstance(node, ast.ClassDef)]
        spawners += [owner for owner, tree in owners
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Attribute)
                     and node.func.attr == "process"]
    return sorted(spawners)


def test_only_the_two_engine_loops_start_a_process_in_core():
    """A batch's device queues and sibling batches are joined by kernel
    fan-outs (DESIGN decision 33): under ``core/``, ``.process(`` starts
    only the dispatch loop and the continuous poll loop."""
    assert _process_starters(SRC / "core") == [
        "ContinuousQueryExecutor.start", "Dispatcher.start"]


def test_only_loops_start_a_process():
    """A lease and a fault episode are timers, a schedule's device
    queues and a calibration trial are fan-outs (DESIGN decision 34):
    under all of ``src/``, ``.process(`` starts only the four loops —
    dispatch, continuous poll, load shedding and a request storm."""
    assert _process_starters(SRC) == [
        "ContinuousQueryExecutor.start", "Dispatcher.start",
        "FailureInjector.schedule_request_storm", "LoadShedder.start"]


def _design_module_map():
    """Paths named by the ``src/repro/`` tree in DESIGN.md section 3."""
    text = (ROOT / "DESIGN.md").read_text()
    block = text.split("```\nsrc/repro/\n", 1)[1].split("```", 1)[0]
    paths, package = [], None
    for line in block.splitlines():
        entry = re.match(r"^(  |    )([\w.]+/?)(\s|$)", line)
        if entry is None:
            continue  # a description's continuation line
        indent, name = entry.group(1), entry.group(2)
        if len(indent) == 2:
            package = name if name.endswith("/") else None
            paths.append(name)
        else:
            paths.append(f"{package}{name}")
    return paths


def test_design_module_map_matches_the_tree():
    mapped = _design_module_map()
    missing = [path for path in mapped if not (SRC / path).exists()]
    assert missing == [], "DESIGN.md section 3 names paths that do not exist"
    on_disk = {str(path.relative_to(SRC))
               + ("/" if path.is_dir() else "")
               for path in SRC.rglob("*")
               if path.suffix == ".py" and path.name != "__init__.py"
               or path.is_dir() and (path / "__init__.py").exists()}
    assert sorted(on_disk - set(mapped)) == [], \
        "modules or packages DESIGN.md section 3 leaves out"
