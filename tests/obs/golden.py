"""The golden-trace conformance harness.

The dump primitive lives in :mod:`repro.obs.dump` (the parallel shard
workers dump their engines in-process, so it is part of the library);
this module keeps the comparing side — :func:`diff_dumps`, and
recording, loading and asserting against checked-in goldens — plus a
re-export of :func:`dump_engine` for the tests' imports.

Regenerating goldens after an intentional behaviour change::

    UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/obs/test_golden.py -q -k matches_golden

(not over all of ``tests/obs``: that would also record the deliberately
broken dump of ``test_perturbation_produces_readable_delta``).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.obs.dump import dump_engine  # noqa: F401  (re-exported)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------
def diff_dumps(expected: Any, actual: Any, *, limit: int = 25) -> List[str]:
    """Human-readable differences between two dumps, path by path.

    Empty when the dumps are identical. Collection size mismatches are
    reported once per container; leaf mismatches as
    ``path: golden <x> != actual <y>``. At most ``limit`` lines, with a
    trailing ``... and N more`` marker when truncated.
    """
    differences: List[str] = []

    def walk(path: str, left: Any, right: Any) -> None:
        if isinstance(left, dict) and isinstance(right, dict):
            for key in sorted(set(left) | set(right)):
                sub = f"{path}.{key}" if path else str(key)
                if key not in left:
                    differences.append(
                        f"{sub}: only in actual ({right[key]!r})")
                elif key not in right:
                    differences.append(
                        f"{sub}: only in golden ({left[key]!r})")
                else:
                    walk(sub, left[key], right[key])
            return
        if isinstance(left, list) and isinstance(right, list):
            if len(left) != len(right):
                differences.append(
                    f"{path}: golden has {len(left)} entries, actual "
                    f"has {len(right)}")
            for index in range(min(len(left), len(right))):
                walk(f"{path}[{index}]", left[index], right[index])
            return
        if type(left) is not type(right) or left != right:
            differences.append(
                f"{path}: golden {left!r} != actual {right!r}")

    walk("", expected, actual)
    if len(differences) > limit:
        overflow = len(differences) - limit
        differences = differences[:limit]
        differences.append(f"... and {overflow} more difference(s)")
    return differences


# ----------------------------------------------------------------------
# Golden files
# ----------------------------------------------------------------------
def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def save_golden(name: str, dump: Dict[str, Any]) -> str:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    path = golden_path(name)
    with open(path, "w") as handle:
        json.dump(dump, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def load_golden(name: str) -> Optional[Dict[str, Any]]:
    path = golden_path(name)
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Asserting
# ----------------------------------------------------------------------
def render_diff(name: str, differences: List[str]) -> str:
    header = (f"run does not match golden {name!r} "
              f"({len(differences)} difference line(s)):")
    return "\n".join([header] + [f"  {line}" for line in differences])


def assert_golden(name: str, dump: Dict[str, Any]) -> None:
    """Assert ``dump`` matches the checked-in golden ``name``.

    With ``UPDATE_GOLDENS=1`` in the environment, (re)writes the golden
    instead of asserting — for recording intentional changes.
    """
    # Round-trip through JSON so tuples/ints compare like the file does.
    dump = json.loads(json.dumps(dump))
    if os.environ.get("UPDATE_GOLDENS"):
        path = save_golden(name, dump)
        print(f"golden {name!r} updated at {path}")
        return
    golden = load_golden(name)
    assert golden is not None, (
        f"no golden {name!r}; record one with UPDATE_GOLDENS=1")
    differences = diff_dumps(golden, dump)
    assert not differences, render_diff(name, differences)
