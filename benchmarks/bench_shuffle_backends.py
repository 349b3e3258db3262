"""Shuffle-backend comparison: WAN bytes and JCT across the data paths.

Runs TeraSort — the paper's most shuffle-bound workload (§V-B) — under
every backend-only scheme (fetch / push_aggregate / pre_merge) and
reports, per backend: mean job completion time, the traffic monitor's
cross-datacenter megabytes, and the backend's own perf counters (WAN vs
intra-DC bytes, blocks fetched/pushed, merge rounds and fan-in).

Also the counter regression guard for CI smoke runs: every backend must
report non-zero work, so a wiring bug that stops counters from being
fed fails here rather than silently zeroing the comparison.

Environment knobs: ``REPRO_SEEDS`` (default 3), ``REPRO_JOBS``.
"""

from __future__ import annotations

import os
from typing import Dict, List

from benchmarks.matrix_cache import emit
from repro.experiments.runner import ExperimentPlan, RunResult, run_matrix
from repro.experiments.schemes import SCHEME_REGISTRY, scheme_spec
from repro.workloads import workload_by_name

# Every scheme that is purely a shuffle backend, registry-enumerated:
# a newly registered backend joins this comparison automatically.
BACKEND_SCHEMES = tuple(
    spec.scheme for spec in SCHEME_REGISTRY.values() if spec.preprocess is None
)


def _seed_count() -> int:
    return int(os.environ.get("REPRO_SEEDS", "3"))


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


def _build_matrix() -> List[RunResult]:
    plan = ExperimentPlan(seeds=tuple(range(_seed_count())))
    return run_matrix(
        [workload_by_name("terasort")], list(BACKEND_SCHEMES), plan
    )


def _by_backend(matrix: List[RunResult]) -> Dict[str, List[RunResult]]:
    grouped: Dict[str, List[RunResult]] = {}
    for result in matrix:
        grouped.setdefault(result.backend, []).append(result)
    return grouped


def _render(grouped: Dict[str, List[RunResult]]) -> List[str]:
    header = (
        f"{'backend':<16}{'JCT (s)':>10}{'xDC MB':>10}{'WAN MB':>10}"
        f"{'intra MB':>10}{'fetched':>9}{'pushed':>8}{'merges':>8}"
        f"{'fan-in':>8}"
    )
    lines = [
        "Shuffle backends on TeraSort "
        f"(mean over {_seed_count()} seeds)",
        header,
    ]
    for backend, runs in grouped.items():
        perf = [r.shuffle_perf for r in runs]
        lines.append(
            f"{backend:<16}"
            f"{_mean([r.duration for r in runs]):10.1f}"
            f"{_mean([r.cross_dc_megabytes for r in runs]):10.1f}"
            f"{_mean([p['wan_bytes'] for p in perf]) / 1e6:10.1f}"
            f"{_mean([p['intra_dc_bytes'] for p in perf]) / 1e6:10.1f}"
            f"{_mean([p['blocks_fetched'] for p in perf]):9.0f}"
            f"{_mean([p['blocks_pushed'] for p in perf]):8.0f}"
            f"{_mean([p['merge_rounds'] for p in perf]):8.0f}"
            f"{_mean([p['mean_merge_fan_in'] for p in perf]):8.1f}"
        )
    return lines


def test_shuffle_backend_comparison(benchmark):
    matrix = benchmark.pedantic(_build_matrix, rounds=1, iterations=1)
    grouped = _by_backend(matrix)
    emit("shuffle_backends.txt", _render(grouped))

    assert set(grouped) == {
        scheme_spec(s).backend for s in BACKEND_SCHEMES
    }
    for backend, runs in grouped.items():
        for result in runs:
            perf = result.shuffle_perf
            # Counters must never silently regress to zero.
            assert perf["map_outputs_registered"] > 0, backend
            assert perf["reduce_reads"] > 0, backend
            assert perf["network_bytes"] > 0, backend
            # The monitor cannot see fewer cross-DC bytes than the
            # backend claims to have pushed over the WAN.
            assert perf["wan_bytes"] / 1e6 <= (
                result.cross_dc_megabytes * (1 + 1e-9)
            ), backend

    push = grouped["push_aggregate"]
    assert all(r.shuffle_perf["blocks_pushed"] > 0 for r in push)
    merged = grouped["pre_merge"]
    assert all(r.shuffle_perf["merge_rounds"] > 0 for r in merged)
    assert all(r.shuffle_perf["mean_merge_fan_in"] > 1 for r in merged)
    # Pre-merge coalesces WAN reads: strictly fewer remote blocks than
    # the per-shard fetch baseline.
    fetch = grouped["fetch"]
    assert _mean(
        [r.shuffle_perf["blocks_fetched"] for r in merged]
    ) < _mean([r.shuffle_perf["blocks_fetched"] for r in fetch])
