"""Fidelity pin: the paper's Fig. 7/8 cells, compared with ``==``.

Every figure the reproduction reports is built from these cells: the five
Table I workloads under the three paper schemes (Spark, Centralized,
AggShuffle).  This test records, for seeds 0-2, each cell's job
completion time (``duration``) and cross-datacenter megabytes in
``paper_fidelity.json`` and compares them with ``==`` — floats round-trip
through JSON by ``repr``, so a change that moves one flow, one task
placement or one float accumulation anywhere on the paper's path fails
here, however small.

Regenerate (only when a change is *meant* to move simulated results, and
say why in CHANGES.md)::

    PYTHONPATH=src:. python -m tests.experiments.test_paper_fidelity
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.runner import ExperimentPlan, run_matrix
from repro.experiments.schemes import PAPER_SCHEMES
from repro.workloads import all_workloads

PIN_PATH = Path(__file__).with_name("paper_fidelity.json")
SEEDS = (0, 1, 2)


def observe_all() -> dict:
    """``{workload: {scheme: {seed: {duration, cross_dc_megabytes}}}}``
    for every pinned cell."""
    pinned: dict = {}
    results = run_matrix(
        all_workloads(), list(PAPER_SCHEMES), ExperimentPlan(seeds=SEEDS), jobs=1
    )
    for result in results:
        cells = pinned.setdefault(result.workload, {})
        cells.setdefault(result.scheme.value, {})[str(result.seed)] = {
            "duration": result.duration,
            "cross_dc_megabytes": result.cross_dc_megabytes,
        }
    return pinned


@pytest.fixture(scope="module")
def observed() -> dict:
    # Round-trip through JSON so both sides have the same key and number
    # types; floats survive exactly (json writes repr).
    return json.loads(json.dumps(observe_all()))


def _pin() -> dict:
    return json.loads(PIN_PATH.read_text())


def test_pin_covers_every_workload_scheme_and_seed():
    pin = _pin()
    assert sorted(pin) == sorted(w.name for w in all_workloads())
    for by_scheme in pin.values():
        assert sorted(by_scheme) == sorted(s.value for s in PAPER_SCHEMES)
        for by_seed in by_scheme.values():
            assert sorted(by_seed) == [str(seed) for seed in SEEDS]


@pytest.mark.parametrize("workload", [w.name for w in all_workloads()])
def test_paper_cells_match_the_pin(observed, workload):
    expected = _pin()[workload]
    for scheme in sorted(expected):
        for seed in sorted(expected[scheme]):
            assert observed[workload][scheme][seed] == expected[scheme][seed], (
                f"{workload}/{scheme}/seed {seed} moved"
            )


if __name__ == "__main__":
    PIN_PATH.write_text(json.dumps(observe_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PIN_PATH}")
