"""Shared helpers for the experiment benchmarks.

Every ``bench_*`` module reproduces one artifact of the paper's
evaluation (see DESIGN.md's experiment index) and reports its measured
table next to the paper's reported numbers. Results are printed and
persisted under ``bench_results/``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "bench_results")

#: The five algorithms in the paper's presentation order.
ALGORITHM_ORDER = ("LERFA+SRFE", "SRFAE", "LS", "SA", "RANDOM")


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Fixed-width text table."""
    materialized: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        materialized.append([
            f"{cell:.2f}" if isinstance(cell, float) else str(cell)
            for cell in row
        ])
    widths = [max(len(line[i]) for line in materialized)
              for i in range(len(headers))]
    lines = []
    for index, line in enumerate(materialized):
        lines.append("  ".join(cell.rjust(width)
                               for cell, width in zip(line, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def record(name: str, title: str, body: str, *,
           smoke: bool = False) -> str:
    """Print a result block and persist it under bench_results/.

    A ``--smoke`` run prints but persists nothing, for the reason
    :func:`write_result` gives: the committed table is a full run's.
    """
    text = f"== {title} ==\n{body}\n"
    print("\n" + text)
    if not smoke:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
            handle.write(text)
    return text


def host_fingerprint() -> Dict[str, Optional[object]]:
    """Where and on what a recorded number was measured.

    ``git_commit`` ends in ``-dirty`` when the tree had uncommitted
    changes, i.e. the numbers belong to the commit after the named one.
    """
    try:
        commit: Optional[str] = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(__file__), capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
    }


def write_result(json_path: str, payload: Mapping[str, object],
                 gates: Mapping[str, object]) -> int:
    """Finalize one benchmark's JSON artifact with boolean gating.

    The single exit door for every gated bench: each gate value is
    coerced to a real ``bool`` (a truthy string or count can never
    masquerade as a passing gate in the artifact), ``gates``, the
    derived top-level ``pass`` and the :func:`host_fingerprint` of the
    measuring host are stamped onto the payload, the JSON
    is written with stable formatting (indent 2, trailing newline), and
    the return value is the process exit code — 0 on pass, 1 on any
    gate miss — so ``raise SystemExit(main())`` fails CI on a miss.

    A ``--smoke`` run (``payload["smoke"]``) is gated the same way but
    writes nothing: the committed artifact holds a full run's numbers,
    which a seconds-long smoke run must not overwrite.
    """
    coerced: Dict[str, bool] = {name: bool(value)
                                for name, value in gates.items()}
    gate_pass = all(coerced.values())
    finalized = dict(payload)
    finalized["gates"] = coerced
    finalized["pass"] = gate_pass
    finalized["host"] = host_fingerprint()
    if not payload.get("smoke"):
        with open(json_path, "w") as handle:
            json.dump(finalized, handle, indent=2)
            handle.write("\n")
    return 0 if gate_pass else 1


def scheduler_factories(sa_parameters=None):
    """Fresh factories of the five evaluated algorithms."""
    from repro.scheduling import (
        LerfaSrfeScheduler,
        ListScheduler,
        RandomScheduler,
        SimulatedAnnealingScheduler,
        SrfaeScheduler,
    )
    return {
        "LERFA+SRFE": lambda seed: LerfaSrfeScheduler(seed),
        "SRFAE": lambda seed: SrfaeScheduler(seed),
        "LS": lambda seed: ListScheduler(seed),
        "SA": lambda seed: SimulatedAnnealingScheduler(
            seed, parameters=sa_parameters),
        "RANDOM": lambda seed: RandomScheduler(seed),
    }
