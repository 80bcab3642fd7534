"""Keeps three descriptions of the tree honest: what a package exports
has a caller, a runtime's ``now`` is assigned only by the kernel, and
DESIGN.md's module map is the tree."""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Exported on purpose although nothing in src/ or examples/ names them.
KEPT_WITHOUT_A_CALLER = {
    # The record `CommunicationLayer.register_device_type()` returns and
    # `.registration()` looks up: callers read its fields (catalog, cost
    # table, probe TIMEOUT) and never spell the class.
    "repro.comm.DeviceTypeRegistration",
    # The records `execute_schedule()` and `breakdown()` return.
    "repro.scheduling.ExecutionResult",
    "repro.scheduling.MakespanBreakdown",
    # Sequence-independent costs from an explicit matrix: the textbook
    # special case whose known bounds and optima are the reference the
    # schedulers' property tests compare against.
    "repro.scheduling.StaticCostModel",
}

#: Where a package's callers may live besides src/ and examples/: the
#: paper-figure study's API (`execute_schedule`, `optimal_schedule`, the
#: makespan metrics; DESIGN section 4) is driven by `benchmarks/bench_*.py`.
EXTRA_CALLER_TREES = {"repro.scheduling": ("benchmarks",)}


def _exported_callables(package_name):
    package = importlib.import_module(package_name)
    for name in package.__all__:
        exported = getattr(package, name)
        if callable(exported):
            yield name, Path(importlib.import_module(
                exported.__module__).__file__)


@pytest.mark.parametrize("package_name", [
    "repro.comm", "repro.network", "repro.sim", "repro.runtime",
    "repro.scheduling"])
def test_every_exported_callable_has_a_caller(package_name):
    """A class or function in ``__all__`` is named somewhere in
    ``src/repro`` outside its own module and its package's
    ``__init__``, or in an example. Constants are not checked."""
    package_init = Path(importlib.import_module(package_name).__file__)
    extra = [ROOT / tree for tree in EXTRA_CALLER_TREES.get(package_name, ())]
    sources = {path: path.read_text()
               for tree in (SRC, ROOT / "examples", *extra)
               for path in tree.rglob("*.py")}
    unused = [
        f"{package_name}.{name}"
        for name, defined_in in _exported_callables(package_name)
        if not any(re.search(rf"\b{name}\b", text)
                   for path, text in sources.items()
                   if path not in (defined_in, package_init))]
    assert sorted(set(unused) - KEPT_WITHOUT_A_CALLER) == []
    stale = {entry for entry in KEPT_WITHOUT_A_CALLER
             if entry.startswith(package_name + ".")} - set(unused)
    assert stale == set(), "allow-listed names that now have a caller"


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
