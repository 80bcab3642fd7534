"""The golden-trace conformance harness.

The dump and diff primitives live in :mod:`repro.obs.dump` (the
parallel shard workers reuse them in-process, so they are part of the
library, not the test suite); this module keeps the golden-file side —
recording, loading and asserting against checked-in goldens — plus
re-exports of the primitives for the existing test/benchmark imports.

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

from repro.obs.dump import (  # noqa: F401  (re-exported harness surface)
    _RequestIdNormalizer,
    diff_dumps,
    dump_engine,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


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
