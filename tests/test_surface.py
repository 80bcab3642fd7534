"""Keeps three descriptions of the tree honest: every definition under
``src/repro`` has a caller that is not a test, a runtime's ``now`` is
assigned only by the kernel, and DESIGN.md's module map is the tree."""

import ast
import re
from fnmatch import fnmatchcase
from functools import lru_cache
from pathlib import Path

import pytest

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
    "repro.devices.sensor.SensorMote.prune_expired_stimuli": (
        "open ROADMAP item",
        "item 2(d) names it as the call `read_sensory` is missing"),
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
    an attribute access or a string; an attribute needs a load.
    Skipped: dunders, ``op_*`` handlers (``Device.execute`` dispatches
    on an f-string), a method that overrides one of a base class in the
    tree (the base's is checked), nested definitions, and the members of
    a class that is itself uncalled.
    """
    modules = {path: ast.parse(path.read_text())
               for tree in CALLER_TREES for path in sorted(tree.rglob("*.py"))}
    identifiers, attributes, loads = set(), set(), set()
    for module in modules.values():
        export_lists = {
            id(node) for statement in module.body
            if isinstance(statement, ast.Assign)
            and any(isinstance(target, ast.Name) and target.id == "__all__"
                    for target in statement.targets)
            for node in ast.walk(statement.value)}
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
                loads.update(node.value.split("."))

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
    "repro.comm", "repro.network", "repro.sim", "repro.runtime",
    "repro.scheduling"])
def test_every_exported_callable_has_a_caller(package_name):
    """The rule as PR 22 left it covered these five packages' exports;
    it now reads the whole-tree verdict for one package (the ids stay:
    a test id present at the floor is not renamed)."""
    uncalled, _ = _surface()
    assert _not_kept(name for name in uncalled
                     if name.startswith(package_name + ".")) == []


def test_only_the_kernel_assigns_a_runtimes_now():
    """``BaseRuntime.now`` is a plain attribute for speed; what the
    read-only property used to enforce is this convention: no source
    outside ``sim/base.py`` assigns an attribute called ``now``."""
    # `RoundBudgetError.now` is an exception's record of a shard's clock.
    not_a_runtime = {("runtime/fleet.py", "self.now = now")}
    assignment = re.compile(r"\.now\s*(?:[-+*/]|//)?=(?!=)")
    offenders = {
        (str(path.relative_to(SRC)), line.strip())
        for path in SRC.rglob("*.py") if path != SRC / "sim" / "base.py"
        for line in path.read_text().splitlines()
        if assignment.search(line)}
    assert offenders - not_a_runtime == set()
    assert not_a_runtime <= offenders, "exemption that no longer applies"


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
