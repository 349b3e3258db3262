"""Fidelity pin: the paper's Fig. 7/8 cells, compared with ``==``.

Every figure the reproduction reports is built from these cells: the five
Table I workloads under the three paper schemes (Spark, Centralized,
AggShuffle).  ``paper_fidelity.json`` records, for the ten seeds the
figures use, each cell's job completion time (``duration``) and
cross-datacenter megabytes, and they are compared with ``==`` — floats
round-trip through JSON by ``repr``, so a change that moves one flow, one
task placement or one float accumulation anywhere on the paper's path
fails here, however small.  The test suite compares seeds 0-2; all ten
(150 cells, about 10 s)::

    PYTHONPATH=src:. python -m tests.experiments.test_paper_fidelity check

Regenerate (only when a change is *meant* to move simulated results, and
say why in CHANGES.md)::

    PYTHONPATH=src:. python -m tests.experiments.test_paper_fidelity write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.experiments.runner import ExperimentPlan, run_matrix
from repro.experiments.schemes import PAPER_SCHEMES
from repro.workloads import all_workloads

PIN_PATH = Path(__file__).with_name("paper_fidelity.json")
SEEDS = tuple(range(10))
# The seeds the test suite compares; ``check`` compares all of SEEDS.
SUITE_SEEDS = (0, 1, 2)


def observe_all(seeds=SEEDS) -> dict:
    """``{workload: {scheme: {seed: {duration, cross_dc_megabytes}}}}``
    for every cell of ``seeds``."""
    pinned: dict = {}
    results = run_matrix(
        all_workloads(), list(PAPER_SCHEMES), ExperimentPlan(seeds=seeds), jobs=1
    )
    for result in results:
        cells = pinned.setdefault(result.workload, {})
        cells.setdefault(result.scheme.value, {})[str(result.seed)] = {
            "duration": result.duration,
            "cross_dc_megabytes": result.cross_dc_megabytes,
        }
    return pinned


def _round_trip(observed: dict) -> dict:
    # Through JSON, so both sides have the same key and number types;
    # floats survive exactly (json writes repr).
    return json.loads(json.dumps(observed))


@pytest.fixture(scope="module")
def observed() -> dict:
    return _round_trip(observe_all(SUITE_SEEDS))


def _pin() -> dict:
    return json.loads(PIN_PATH.read_text())


def moved(observed: dict, workload: str) -> list:
    """The pinned cells of ``workload`` that ``observed`` holds and that
    differ from the pin."""
    expected = _pin()[workload]
    return [
        f"{workload}/{scheme}/seed {seed} moved"
        for scheme in sorted(expected)
        for seed in sorted(observed[workload][scheme])
        if observed[workload][scheme][seed] != expected[scheme][seed]
    ]


def test_pin_covers_every_workload_scheme_and_seed():
    pin = _pin()
    assert sorted(pin) == sorted(w.name for w in all_workloads())
    for by_scheme in pin.values():
        assert sorted(by_scheme) == sorted(s.value for s in PAPER_SCHEMES)
        for by_seed in by_scheme.values():
            assert sorted(by_seed) == [str(seed) for seed in SEEDS]


@pytest.mark.parametrize("workload", [w.name for w in all_workloads()])
def test_paper_cells_match_the_pin(observed, workload):
    assert moved(observed, workload) == []


def main(argv) -> int:
    if argv == ["check"]:
        observed = _round_trip(observe_all())
        lines = [line for w in all_workloads() for line in moved(observed, w.name)]
        print("\n".join(lines) or f"all {len(SEEDS)} seeds match {PIN_PATH.name}")
        return 1 if lines else 0
    if argv == ["write"]:
        PIN_PATH.write_text(json.dumps(observe_all(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {PIN_PATH}")
        return 0
    print("usage: python -m tests.experiments.test_paper_fidelity check|write")
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
