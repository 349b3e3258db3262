"""Extension bench — the dollar-vs-JCT frontier of wide-area shuffles.

The paper's opening motivation includes "the time and bandwidth *cost*
for moving data across datacenters".  Cloud providers bill inter-region
egress per gigabyte and object-store requests per thousand; this bench
runs every backend-only scheme (fetch / push_aggregate / pre_merge /
remote / blob) over the workload suite and places each backend on a
dollars-versus-completion-time plane:

* **egress dollars** — EC2-style per-GB inter-region pricing over the
  traffic monitor's per-link bytes (``repro.metrics.billing``);
* **request dollars** — the blob backend additionally pays per-PUT and
  per-GET object-store request pricing (``BlobPricing``); zero for
  every other backend;
* **frontier** — the Pareto-efficient subset: a backend is on the
  frontier iff no other backend is at least as fast *and* at least as
  cheap (strictly better in one dimension).

Artifacts: ``ext_billing.txt`` (human table) and
``BENCH_billing_frontier.json`` (machine-readable rows + frontier).

Environment knobs: ``REPRO_SEEDS``, ``REPRO_WORKLOADS``, ``REPRO_JOBS``.
"""

from __future__ import annotations

from typing import Dict, List

from benchmarks.matrix_cache import (
    emit,
    emit_json,
    seed_count,
    selected_workloads,
)
from repro.experiments.runner import ExperimentPlan, RunResult, run_matrix
from repro.experiments.schemes import SCHEME_REGISTRY
from repro.metrics.billing import blob_request_dollars

# Every scheme that is purely a shuffle backend, registry-enumerated:
# a newly registered backend joins the frontier automatically.
BACKEND_SCHEMES = tuple(
    spec.scheme for spec in SCHEME_REGISTRY.values() if spec.preprocess is None
)


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


def _build_matrix() -> List[RunResult]:
    plan = ExperimentPlan(seeds=tuple(range(seed_count())))
    return run_matrix(
        selected_workloads(), list(BACKEND_SCHEMES), plan
    )


def _aggregate(matrix: List[RunResult]) -> Dict[str, Dict]:
    """Per-backend means over (workload x seed): JCT, egress dollars,
    request dollars, and the per-workload breakdown."""
    grouped: Dict[str, List[RunResult]] = {}
    for run in matrix:
        grouped.setdefault(run.backend, []).append(run)
    rows: Dict[str, Dict] = {}
    for backend, runs in grouped.items():
        request = [blob_request_dollars(r.shuffle_perf) for r in runs]
        total = [r.cost_dollars for r in runs]
        per_workload: Dict[str, Dict[str, List[float]]] = {}
        for run in runs:
            cell = per_workload.setdefault(
                run.workload, {"jct": [], "dollars": []}
            )
            cell["jct"].append(run.duration)
            cell["dollars"].append(run.cost_dollars)
        rows[backend] = {
            "scheme": runs[0].scheme.value,
            "mean_jct_s": _mean([r.duration for r in runs]),
            "mean_total_dollars": _mean(total),
            "mean_egress_dollars": _mean(
                [t - q for t, q in zip(total, request)]
            ),
            "mean_request_dollars": _mean(request),
            "per_workload": {
                name: {
                    "mean_jct_s": _mean(cell["jct"]),
                    "mean_dollars": _mean(cell["dollars"]),
                }
                for name, cell in sorted(per_workload.items())
            },
        }
    return rows


def _frontier(rows: Dict[str, Dict]) -> List[str]:
    """Pareto-efficient backends on the (JCT, dollars) plane."""
    frontier = []
    for name, row in rows.items():
        dominated = any(
            other["mean_jct_s"] <= row["mean_jct_s"]
            and other["mean_total_dollars"] <= row["mean_total_dollars"]
            and (
                other["mean_jct_s"] < row["mean_jct_s"]
                or other["mean_total_dollars"] < row["mean_total_dollars"]
            )
            for other_name, other in rows.items()
            if other_name != name
        )
        if not dominated:
            frontier.append(name)
    return sorted(frontier)


def _render(rows: Dict[str, Dict], frontier: List[str]) -> List[str]:
    lines = [
        "Extension — dollars vs. completion time, all shuffle backends "
        f"(mean over {seed_count()} seed(s))",
        f"{'backend':<16}{'JCT (s)':>10}{'egress $':>11}{'request $':>11}"
        f"{'total $':>10}{'frontier':>10}",
    ]
    for backend in sorted(rows, key=lambda b: rows[b]["mean_jct_s"]):
        row = rows[backend]
        marker = "*" if backend in frontier else ""
        lines.append(
            f"{backend:<16}{row['mean_jct_s']:>10.1f}"
            f"{row['mean_egress_dollars']:>11.4f}"
            f"{row['mean_request_dollars']:>11.4f}"
            f"{row['mean_total_dollars']:>10.4f}{marker:>10}"
        )
    lines.append("")
    lines.append("* = Pareto-efficient (no backend is both faster and cheaper)")
    return lines


def test_billing_frontier_across_backends(benchmark):
    rows = benchmark.pedantic(
        lambda: _aggregate(_build_matrix()), rounds=1, iterations=1
    )
    frontier = _frontier(rows)
    emit("ext_billing.txt", _render(rows, frontier))
    emit_json(
        "BENCH_billing_frontier.json",
        {
            "seeds": seed_count(),
            "backends": rows,
            "frontier": frontier,
        },
    )

    # All five backends ran and produced dollars.
    assert set(rows) == {
        "fetch", "push_aggregate", "pre_merge", "remote", "blob"
    }
    for backend, row in rows.items():
        assert row["mean_total_dollars"] > 0, backend
    # Request pricing is the blob backend's signature: nonzero there,
    # zero everywhere else.
    assert rows["blob"]["mean_request_dollars"] > 0
    for backend in ("fetch", "push_aggregate", "pre_merge", "remote"):
        assert rows[backend]["mean_request_dollars"] == 0.0
    # Push/Aggregate saves real money against stock Spark, and the
    # frontier is non-trivial: at least one backend dominates another.
    assert (
        rows["push_aggregate"]["mean_total_dollars"]
        < rows["fetch"]["mean_total_dollars"]
    )
    assert 1 <= len(frontier) < len(rows)
