"""Shared run-matrix for the figure benchmarks.

Fig. 7, Fig. 8, Fig. 9, and the headline numbers all consume the same
(workload x scheme x seed) matrix on the Fig. 6 cluster.  Computing it
once per pytest session keeps ``pytest benchmarks/`` affordable; each
benchmark then times its own aggregation plus (for the first caller)
the matrix construction.

Environment knobs:

* ``REPRO_SEEDS``      — number of repetitions (default 10, as in §V-B).
* ``REPRO_WORKLOADS``  — comma-separated subset of workload names.
* ``REPRO_JOBS``       — worker processes for the run matrix (cells are
  independent seeded simulations; parallel output is identical to the
  sequential run).  Unset or <= 1 runs sequentially.
* ``REPRO_SMOKE``      — non-zero (what ``--smoke`` sets) sends every
  report to ``results/smoke/`` instead of over a tracked table.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from repro.experiments.runner import ExperimentPlan, RunResult, run_matrix
from repro.experiments.schemes import PAPER_SCHEMES
from repro.workloads import all_workloads

RESULTS_DIR = Path(__file__).resolve().parent / "results"

_matrix_cache: Dict[Tuple, List[RunResult]] = {}


def seed_count() -> int:
    return int(os.environ.get("REPRO_SEEDS", "10"))


def selected_workloads():
    requested = os.environ.get("REPRO_WORKLOADS")
    workloads = all_workloads()
    if not requested:
        return workloads
    wanted = {name.strip().lower() for name in requested.split(",")}
    return [w for w in workloads if w.name.lower() in wanted]


def get_matrix(seeds: Sequence[int] | None = None) -> List[RunResult]:
    """The full evaluation matrix, computed once per process."""
    seed_tuple = tuple(seeds) if seeds is not None else tuple(
        range(seed_count())
    )
    names = tuple(w.name for w in selected_workloads())
    key = (seed_tuple, names)
    if key not in _matrix_cache:
        plan = ExperimentPlan(seeds=seed_tuple)
        # REPRO_JOBS picks the worker count; unset runs sequentially.
        _matrix_cache[key] = run_matrix(
            selected_workloads(), list(PAPER_SCHEMES), plan
        )
    return _matrix_cache[key]


def results_dir() -> Path:
    """Where reports land: ``benchmarks/results/``, whose tables are
    tracked — or, for a smoke run (``--smoke`` / ``REPRO_SMOKE``), the
    ignored ``benchmarks/results/smoke/``, because a cut-down matrix must
    never overwrite a table the repository quotes."""
    smoke = os.environ.get("REPRO_SMOKE", "0") not in ("", "0")
    path = RESULTS_DIR / "smoke" if smoke else RESULTS_DIR
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_report(filename: str, lines: Sequence[str]) -> Path:
    """Persist a benchmark's table under :func:`results_dir`."""
    path = results_dir() / filename
    text = "\n".join(lines) + "\n"
    path.write_text(text)
    return path


def emit(filename: str, lines: Sequence[str]) -> None:
    """Print a report and persist it."""
    print()
    for line in lines:
        print(line)
    write_report(filename, lines)


def emit_json(filename: str, payload: Any) -> Path:
    """Persist a machine-readable benchmark artifact alongside the text
    report (stable key order so diffs stay reviewable)."""
    path = results_dir() / filename
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
