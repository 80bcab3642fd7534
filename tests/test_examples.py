"""Smoke tests: every example script runs to completion.

Examples are part of the public API surface, and ``tests/test_surface.py``
counts them as callers: each runs here, in process through its
``main()`` and as a script in a subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "examples"

sys.path.insert(0, str(EXAMPLES))


def test_quickstart(capsys):
    import quickstart
    quickstart.main()
    out = capsys.readouterr().out
    assert "Registered continuous query" in out
    assert "sharp       True" in out


def test_snapshot_queries(capsys):
    import snapshot_queries
    snapshot_queries.main()
    out = capsys.readouterr().out
    assert "Scan(camera AS c)" in out
    assert "row(s)" in out


def test_custom_device(capsys):
    import custom_device
    custom_device.main()
    out = capsys.readouterr().out
    assert "ENGAGED" in out
    assert "lockdown action(s) serviced" in out


def test_sensor_field(capsys):
    import sensor_field
    sensor_field.main()
    out = capsys.readouterr().out
    assert "Hop depths" in out
    assert "blinked" in out


def test_surveillance_lab(capsys):
    import surveillance_lab
    surveillance_lab.main()
    out = capsys.readouterr().out
    assert "requests completed" in out
    assert "MMS in manager inbox" in out


#: Example -> the line of its output that states its result.
RESULT_LINES = {
    "custom_device": "3 lockdown action(s) serviced; doors within 15 m "
                     "of the window are bolted, the rest stay open.",
    "quickstart": "  latency     1.50 s (event to stored photo)",
    "sensor_field": "Heat detected at mote_1_1; blinked 7 neighbouring "
                    "mote(s):",
    "snapshot_queries": "  (7 row(s), virtual time now 0.215s)",
    "surveillance_lab": "  requests serviced      30",
}


def test_every_example_has_a_result_line():
    assert sorted(path.stem for path in EXAMPLES.glob("*.py")) == sorted(
        RESULT_LINES)


@pytest.mark.parametrize("name", sorted(RESULT_LINES))
def test_every_example_runs_as_a_script(name):
    """``python examples/<name>.py``, as README says to run it: the
    script's own entry point exits 0 and prints its result."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), environment.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(EXAMPLES / f"{name}.py")], cwd=ROOT,
        env=environment, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert RESULT_LINES[name] in run.stdout.splitlines()
