"""Every tracked table under ``benchmarks/results/``, as one ordered list.

    PYTHONPATH=src:. python -m benchmarks.tables [NAME ...] [--check]

Each :class:`Table` names its output files, a fixed full run size and a
fixed check run size, a build (size -> data), a render (data -> text
lines) and its shape checks (data -> ``AssertionError`` on a miss).  A
plain run rebuilds the named tables (default: all) at full size over the
tracked files, then runs their checks.  ``--check`` rebuilds them at
check size into the ignored ``results/smoke/`` instead, never over a
tracked table, runs the checks, and also fails when a tracked table has
no stamp or is stale.  Either exits 1 on any failure.

The stamp is the first line of each ``.txt`` and the ``stamp`` key of each
JSON artifact: the commit the table was made at, the newest
``BENCH_e2e.json`` entry at that time, the run size, and whether it was a
smoke run.  A table is stale when its stamped entry comes before the
newest entry whose simulated digests moved (:func:`newest_moved`): the
simulator has changed what it computes since the table was written.

``REPRO_JOBS`` fans the run matrices out over worker processes; output is
identical to a sequential run.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks import scenarios
from benchmarks.check_e2e_trajectory import TRAJECTORY
from benchmarks.e2e.__main__ import git_commit
from repro.cluster.builder import ec2_six_region_spec
from repro.cluster.context import ClusterContext
from repro.config import ShuffleConfig, SimulationConfig
from repro.core.analysis import (
    cross_dc_traffic_lower_bound,
    optimal_reducer_datacenter,
    total_fetch_volume,
)
from repro.experiments.figures import FIGURES
from repro.experiments.placement import skewed_block_placement
from repro.experiments.runner import (
    ExperimentPlan,
    RunResult,
    generated_input,
    run_matrix,
    run_workload_once,
)
from repro.experiments.schemes import (
    PAPER_SCHEMES,
    SCHEME_REGISTRY,
    Scheme,
    config_for_scheme,
)
from repro.failures import CampaignConfig, run_campaign
from repro.failures.chaos import KINDS
from repro.metrics.billing import blob_request_dollars
from repro.metrics.stats import summarize
from repro.network.fair_share import max_min_fair_rates
from repro.network.jitter import JitterSpec
from repro.network.topology import MBPS
from repro.scheduler.job_scheduler import JOB_POLICIES
from repro.simulation import RandomSource
from repro.workloads import PageRank, Sort, TeraSort, all_workloads
from repro.workloads.arrivals import ArrivalSpec, StreamSpec, TenantSpec

RESULTS_DIR = Path(__file__).resolve().parent / "results"
STAMP = "# stamp"

# Every scheme that is purely a shuffle backend, registry-enumerated: a
# newly registered backend joins the backend matrix automatically.
BACKEND_SCHEMES: Tuple[Scheme, ...] = tuple(
    spec.scheme for spec in SCHEME_REGISTRY.values() if spec.preprocess is None
)


@dataclass(frozen=True)
class Table:
    name: str  # also the stem of its .txt
    unit: str  # what the run size counts
    full: int
    check: int
    build: Callable[[int], Any]
    render: Callable[[Any], List[str]]
    checks: Callable[[Any], None]
    # The JSON artifact beside the .txt, if any: (file name, data -> dict).
    artifact: Optional[Tuple[str, Callable[[Any], Dict]]] = None

    @property
    def outputs(self) -> Tuple[str, ...]:
        extra = (self.artifact[0],) if self.artifact else ()
        return (f"{self.name}.txt", *extra)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


def _by(results: Sequence[RunResult], key: str) -> Dict[Any, List[RunResult]]:
    grouped: Dict[Any, List[RunResult]] = {}
    for result in results:
        grouped.setdefault(getattr(result, key), []).append(result)
    return grouped


def _plan(seeds: int, **overrides) -> ExperimentPlan:
    return ExperimentPlan(seeds=tuple(range(seeds)), **overrides)


# ---------------------------------------------------------------------------
# One matrix per kind, built once per process and size
# ---------------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def paper_matrix(seeds: int) -> List[RunResult]:
    """Table I workloads x the paper's three schemes (Figs. 7-9, headline)."""
    return run_matrix(all_workloads(), list(PAPER_SCHEMES), _plan(seeds))


@functools.lru_cache(maxsize=None)
def backend_matrix(seeds: int) -> List[RunResult]:
    """Table I workloads x every backend-only scheme (billing, backends)."""
    return run_matrix(all_workloads(), list(BACKEND_SCHEMES), _plan(seeds))


# ---------------------------------------------------------------------------
# Motivation (Figs. 1-2) and the Eq. (1)/(2) model
# ---------------------------------------------------------------------------
def _render_fig1(data) -> List[str]:
    fetch, push = data
    ends = [str([round(t, 1) for t in f.transfer_ends]) for f in data]
    return [
        "Fig. 1 — shuffle-input transfer timing (abstract time units)",
        f"{'':<18}{'fetch (a)':>12}{'push (b)':>12}",
        f"{'transfer starts':<18}{str(fetch.transfer_starts):>12}"
        f"{str(push.transfer_starts):>12}",
        f"{'transfer ends':<18}{ends[0]:>12}{ends[1]:>12}",
        f"{'reducers start':<18}{fetch.reduce_start:>12.1f}"
        f"{push.reduce_start:>12.1f}",
    ]


def _check_fig1(data) -> None:
    fetch, push = data
    assert fetch.reduce_start == 18.0  # the paper's exact numbers
    assert push.reduce_start == 14.0


def _render_fig2(data) -> List[str]:
    lines = [
        "Fig. 2 — reducer-failure recovery (abstract time units)",
        f"{'':<24}{'fetch (a)':>12}{'push (b)':>12}",
    ]
    for label, field in (
        ("failure at", "first_attempt_end"),
        ("recovery read time", "recovery_read_seconds"),
        ("recovered at", "recovered_at"),
    ):
        fetch, push = (getattr(run, field) for run in data)
        lines.append(f"{label:<24}{fetch:>12.1f}{push:>12.1f}")
    return lines


def _check_fig2(data) -> None:
    fetch, push = data
    assert fetch.recovery_read_seconds == 4.0  # WAN re-fetch
    assert push.recovery_read_seconds < 1.0  # local re-read
    assert push.recovered_at < fetch.recovered_at


def _eq_model(instances: int) -> Dict[str, float]:
    """Worst gap between the optimal placement's fetch volume and Eq. (2)'s
    S - s1 bound over random shuffle-input distributions; and the
    progressive-filling solver over a realistic flow population."""
    rng = random.Random(0)
    worst_gap = 0.0
    for _ in range(instances):
        sizes = {f"dc{i}": rng.uniform(0, 1000.0) for i in range(rng.randint(1, 6))}
        best = optimal_reducer_datacenter(sizes)
        achieved = total_fetch_volume(sizes, [best] * 8)
        bound = cross_dc_traffic_lower_bound(sizes)
        worst_gap = max(worst_gap, abs(achieved - bound))
    rng = random.Random(1)
    links = {f"l{i}": rng.uniform(1e6, 1e9) for i in range(60)}
    names = sorted(links)
    flows = {f"f{i}": rng.sample(names, rng.randint(2, 5)) for i in range(200)}
    rates = max_min_fair_rates(flows, links)
    return {"instances": instances, "worst_gap": worst_gap, "rates": len(rates)}


def _render_eq_model(data) -> List[str]:
    return [
        "Eq. (1)/(2) — optimal aggregation achieves the S - s1 bound",
        f"worst |achieved - bound| over {data['instances']} random instances: "
        f"{data['worst_gap']:.3e} bytes",
    ]


def _check_eq_model(data) -> None:
    assert data["worst_gap"] < 1e-6
    assert data["rates"] == 200  # one rate per flow


# ---------------------------------------------------------------------------
# The paper matrix: Figs. 7, 8, 9 and the headline
# ---------------------------------------------------------------------------
def _figure(name: str) -> Tuple[Callable, Callable]:
    aggregate, render = FIGURES[name]
    return (lambda seeds: aggregate(paper_matrix(seeds))), render


def _check_fig7(figure) -> None:
    for workload, by_scheme in figure.items():
        assert by_scheme["AggShuffle"].trimmed < by_scheme["Spark"].trimmed, (
            f"{workload}: AggShuffle should finish first"
        )


def _check_fig8(figure) -> None:
    for workload, by_scheme in figure.items():
        if workload == "TeraSort":
            # The anomaly: Centralized ships raw input, the least bytes.
            assert by_scheme["Centralized"] < by_scheme["Spark"]
            assert by_scheme["Centralized"] < by_scheme["AggShuffle"]
        else:
            # Eq. (2): pushed volume is the minimum any fetch placement can
            # reach, so AggShuffle is never above Spark (equal when the
            # baseline's reducers all land in the largest datacenter).
            assert by_scheme["AggShuffle"] <= by_scheme["Spark"] * (1 + 1e-9), (
                workload
            )
    pagerank = figure["PageRank"]  # the headline: ~90 % in the paper
    reduction = 1 - pagerank["AggShuffle"] / pagerank["Spark"]
    assert reduction > 0.75, f"PageRank reduction only {reduction:.0%}"


def _check_fig9(figure) -> None:
    for workload, by_scheme in figure.items():
        # At least two stages per scheme (Centralized adds its centralize
        # phase on top), and a real centralize phase for big inputs.
        for scheme, stages in by_scheme.items():
            assert len(stages) >= 2, (workload, scheme)
        if workload in ("WordCount", "TeraSort"):
            assert by_scheme["Centralized"][0].trimmed > 0, workload


def _check_headline(headline) -> None:
    reductions = [entry["jct_reduction_pct"] for entry in headline.values()]
    # Every workload improves; the best improvement is substantial.
    assert all(r > 0 for r in reductions), reductions
    assert max(reductions) > 20.0, reductions
    # Stability: AggShuffle's spread is at most Spark's on the iterative
    # workload, where WAN jitter compounds.
    pagerank = headline["PageRank"]
    assert pagerank["aggshuffle_iqr"] <= pagerank["spark_iqr"]


# ---------------------------------------------------------------------------
# Ablations: aggregation subset size, the TeraSort transferTo fix
# ---------------------------------------------------------------------------
def _aggshuffle_context(workload, seed: int, shuffle=None) -> ClusterContext:
    """An AggShuffle cell on the Fig. 6 cluster, input installed."""
    spec = ec2_six_region_spec()
    config = config_for_scheme(Scheme.AGGSHUFFLE, workload.spec, seed)
    if shuffle is not None:
        config = dataclasses.replace(config, shuffle=shuffle)
    context = ClusterContext(spec, config)
    partitions = generated_input(workload, seed)
    placement = skewed_block_placement(
        spec, RandomSource(seed).child(f"placement:{workload.name}"),
        len(partitions),
    )
    workload.install(context, partitions, placement_hosts=placement)
    return context


def _subset_cell(k: int, seed: int) -> Tuple[float, float]:
    workload = Sort()
    context = _aggshuffle_context(workload, seed, ShuffleConfig(
        backend="push_aggregate", aggregation_subset_size=k
    ))
    started = context.sim.now
    workload.run(context)
    cell = (context.sim.now - started, context.traffic.cross_dc_megabytes)
    context.shutdown()
    return cell


def _ablation_subset(seeds: int) -> Dict[int, Tuple[float, float]]:
    """§III-B aggregates "to a subset of datacenters": sweep the subset
    size k for Sort — mean (JCT, cross-DC MB) per k."""
    rows = {}
    for k in (1, 2, 3, 6):
        runs = [_subset_cell(k, seed) for seed in range(seeds)]
        rows[k] = (_mean([d for d, _t in runs]), _mean([t for _d, t in runs]))
    return rows


def _render_ablation_subset(rows) -> List[str]:
    return [
        "Ablation — aggregation subset size k (Sort workload)",
        f"{'k':>3}{'JCT (s)':>10}{'cross-DC MB':>14}",
        *(f"{k:>3}{jct:>10.1f}{mb:>14.1f}" for k, (jct, mb) in rows.items()),
    ]


def _check_ablation_subset(rows) -> None:
    # k=1 moves less later-stage data than scattering over all 6 DCs.
    assert rows[1][1] <= rows[6][1] * 1.25, rows


def _terasort_cell(explicit: bool, seed: int) -> Tuple[float, float]:
    workload = TeraSort()
    context = _aggshuffle_context(workload, seed)
    started = context.sim.now
    if explicit:
        rdd = workload.build_with_explicit_transfer(context)
    else:
        rdd = workload.build(context)
    rdd.save_as_file(workload.output_path)
    duration = context.sim.now - started
    pushed = context.traffic.cross_dc_by_tag.get("transfer_to", 0.0) / 1e6
    context.shutdown()
    return duration, pushed


def _terasort_fix(seeds: int) -> Dict[str, Tuple[float, float]]:
    """§V-B: "explicitly calling transferTo() before the map" — mean (JCT,
    pushed MB) of implicit AggShuffle and of the explicit fix."""
    rows = {}
    for label, explicit in (("implicit", False), ("explicit", True)):
        runs = [_terasort_cell(explicit, seed) for seed in range(seeds)]
        rows[label] = (_mean([d for d, _p in runs]), _mean([p for _d, p in runs]))
    return rows


def _render_terasort_fix(rows) -> List[str]:
    return [
        "Ablation — TeraSort with explicit transfer_to before the map",
        f"{'variant':<22}{'JCT (s)':>10}{'pushed MB':>12}",
        *(
            f"{label:<22}{rows[key][0]:>10.1f}{rows[key][1]:>12.1f}"
            for label, key in (
                ("implicit AggShuffle", "implicit"),
                ("explicit transferTo", "explicit"),
            )
        ),
    ]


def _check_terasort_fix(rows) -> None:
    (implicit_jct, implicit_push), (explicit_jct, explicit_push) = (
        rows["implicit"], rows["explicit"]
    )
    # The fix ships raw instead of bloated data (by the bloat factor) ...
    assert explicit_push < implicit_push
    # ... at a bounded completion-time cost: moving the map into the
    # aggregator datacenter serialises it onto that region's cores, a
    # compute/traffic trade-off the paper leaves to the developer.
    assert explicit_jct <= implicit_jct * 1.15


# ---------------------------------------------------------------------------
# Extensions: an Iridium-like baseline, WAN jitter, the billing frontier
# ---------------------------------------------------------------------------
def _ext_baselines(seeds: int) -> Dict[str, Tuple[Any, float]]:
    """PageRank under Spark, Iridium-like input redistribution, Centralized
    and AggShuffle: (JCT summary, mean cross-DC MB) per scheme (§VI)."""
    schemes = [Scheme.SPARK, Scheme.IRIDIUM, Scheme.CENTRALIZED, Scheme.AGGSHUFFLE]
    grouped = _by(run_matrix([PageRank()], schemes, _plan(seeds)), "scheme")
    return {
        scheme.value: (
            summarize([r.duration for r in grouped[scheme]]),
            _mean([r.cross_dc_megabytes for r in grouped[scheme]]),
        )
        for scheme in schemes
    }


def _render_ext_baselines(rows) -> List[str]:
    return [
        "Extension — PageRank under four schemes",
        f"{'scheme':<14}{'JCT (s)':>10}{'cross-DC MB':>14}",
        *(
            f"{scheme:<14}{stats.trimmed:>10.1f}{traffic:>14.1f}"
            for scheme, (stats, traffic) in rows.items()
        ),
    ]


def _check_ext_baselines(rows) -> None:
    # Aggregation beats input redistribution on iterative traffic (the
    # redistributed input still shuffles across DCs every iteration) and
    # on completion time.
    assert rows["AggShuffle"][1] < rows["IridiumLike"][1]
    assert rows["AggShuffle"][0].trimmed < rows["IridiumLike"][0].trimmed


_JITTER_BANDS = (
    ("stable 200 Mbps", None),
    ("160-240 Mbps", JitterSpec(low=160 * MBPS, high=240 * MBPS)),
    ("80-300 Mbps", JitterSpec(low=80 * MBPS, high=300 * MBPS)),
    ("40-360 Mbps", JitterSpec(low=40 * MBPS, high=360 * MBPS)),
)


def _ext_jitter(seeds: int) -> List[Tuple]:
    """§I: jitter's impact "is minimized" — PageRank JCT and IQR of Spark
    and AggShuffle per WAN jitter band: (band, Spark JCT, Spark IQR,
    Agg JCT, Agg IQR)."""
    rows = []
    for label, jitter in _JITTER_BANDS:
        base = dataclasses.replace(SimulationConfig(), jitter=jitter)
        grouped = _by(run_matrix(
            [PageRank()], [Scheme.SPARK, Scheme.AGGSHUFFLE],
            _plan(seeds, base_config=base),
        ), "scheme")
        row: Tuple = (label,)
        for scheme in (Scheme.SPARK, Scheme.AGGSHUFFLE):
            stats = summarize([r.duration for r in grouped[scheme]])
            row += (stats.trimmed, stats.iqr_width)
        rows.append(row)
    return rows


def _render_ext_jitter(rows) -> List[str]:
    return [
        "Extension — PageRank JCT vs WAN jitter band",
        f"{'band':<18}{'Spark JCT':>10}{'Spark IQR':>10}"
        f"{'Agg JCT':>10}{'Agg IQR':>10}",
        *(
            f"{label:<18}" + "".join(f"{v:>10.1f}" for v in values)
            for label, *values in rows
        ),
    ]


def _check_ext_jitter(rows) -> None:
    # Under the widest band the baseline's spread clearly exceeds
    # AggShuffle's (narrow bands leave both essentially deterministic with
    # the fixed-dataset methodology), and AggShuffle is faster every time.
    widest = rows[-1]
    assert widest[4] < widest[2], "AggShuffle should be steadier"
    for _label, spark_jct, _si, agg_jct, _ai in rows:
        assert agg_jct < spark_jct


def _ext_billing(seeds: int) -> Dict[str, Any]:
    """Dollars vs JCT per backend over the backend matrix: egress dollars
    from per-GB inter-region pricing, request dollars from object-store
    PUT/GET pricing (blob only), and the Pareto frontier — the backends
    that no other backend beats on both JCT and dollars."""
    rows: Dict[str, Dict] = {}
    for backend, runs in _by(backend_matrix(seeds), "backend").items():
        request = [blob_request_dollars(r.shuffle_perf) for r in runs]
        total = [r.cost_dollars for r in runs]
        rows[backend] = {
            "scheme": runs[0].scheme.value,
            "mean_jct_s": _mean([r.duration for r in runs]),
            "mean_total_dollars": _mean(total),
            "mean_egress_dollars": _mean([t - q for t, q in zip(total, request)]),
            "mean_request_dollars": _mean(request),
            "per_workload": {
                name: {
                    "mean_jct_s": _mean([r.duration for r in cell]),
                    "mean_dollars": _mean([r.cost_dollars for r in cell]),
                }
                for name, cell in sorted(_by(runs, "workload").items())
            },
        }

    def dominated(name: str) -> bool:
        mine = (rows[name]["mean_jct_s"], rows[name]["mean_total_dollars"])
        return any(
            (other["mean_jct_s"], other["mean_total_dollars"]) != mine
            and other["mean_jct_s"] <= mine[0]
            and other["mean_total_dollars"] <= mine[1]
            for other_name, other in rows.items()
            if other_name != name
        )

    frontier = sorted(name for name in rows if not dominated(name))
    return {"seeds": seeds, "backends": rows, "frontier": frontier}


def _render_ext_billing(data) -> List[str]:
    rows, frontier = data["backends"], data["frontier"]
    lines = [
        "Extension — dollars vs. completion time, all shuffle backends "
        f"(mean over {data['seeds']} seed(s))",
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
    return lines + [
        "", "* = Pareto-efficient (no backend is both faster and cheaper)"
    ]


def _check_ext_billing(data) -> None:
    rows, frontier = data["backends"], data["frontier"]
    assert set(rows) == {"fetch", "push_aggregate", "pre_merge", "remote", "blob"}
    for backend, row in rows.items():
        assert row["mean_total_dollars"] > 0, backend
        # Request pricing is the blob backend's signature.
        if backend == "blob":
            assert row["mean_request_dollars"] > 0
        else:
            assert row["mean_request_dollars"] == 0.0, backend
    # Push/Aggregate saves real money against stock Spark, and the frontier
    # is non-trivial: at least one backend dominates another.
    assert (
        rows["push_aggregate"]["mean_total_dollars"]
        < rows["fetch"]["mean_total_dollars"]
    )
    assert 1 <= len(frontier) < len(rows)


# ---------------------------------------------------------------------------
# Shuffle backends: the TeraSort slice of the backend matrix
# ---------------------------------------------------------------------------
def _shuffle_backends(seeds: int) -> Dict[str, Any]:
    """TeraSort — the paper's most shuffle-bound workload (§V-B) — per
    backend: JCT, the monitor's cross-DC MB and the backend's own perf
    counters."""
    terasort = [r for r in backend_matrix(seeds) if r.workload == "TeraSort"]
    return {"seeds": seeds, "backends": _by(terasort, "backend")}


def _render_shuffle_backends(data) -> List[str]:
    lines = [
        f"Shuffle backends on TeraSort (mean over {data['seeds']} seeds)",
        f"{'backend':<16}{'JCT (s)':>10}{'xDC MB':>10}{'WAN MB':>10}"
        f"{'intra MB':>10}{'fetched':>9}{'pushed':>8}{'merges':>8}"
        f"{'fan-in':>8}",
    ]
    keys = ("wan_bytes", "intra_dc_bytes", "blocks_fetched", "blocks_pushed",
            "merge_rounds", "mean_merge_fan_in")
    for backend, runs in data["backends"].items():
        mean = {key: _mean([r.shuffle_perf[key] for r in runs]) for key in keys}
        lines.append(
            f"{backend:<16}{_mean([r.duration for r in runs]):10.1f}"
            f"{_mean([r.cross_dc_megabytes for r in runs]):10.1f}"
            f"{mean['wan_bytes'] / 1e6:10.1f}{mean['intra_dc_bytes'] / 1e6:10.1f}"
            f"{mean['blocks_fetched']:9.0f}{mean['blocks_pushed']:8.0f}"
            f"{mean['merge_rounds']:8.0f}{mean['mean_merge_fan_in']:8.1f}"
        )
    return lines


def _check_shuffle_backends(data) -> None:
    grouped = data["backends"]
    assert set(grouped) == {
        SCHEME_REGISTRY[s].backend for s in BACKEND_SCHEMES
    }
    for backend, runs in grouped.items():
        for result in runs:
            perf = result.shuffle_perf
            # Counters must never silently regress to zero.
            assert perf["map_outputs_registered"] > 0, backend
            assert perf["reduce_reads"] > 0, backend
            assert perf["network_bytes"] > 0, backend
            # The monitor cannot see fewer cross-DC bytes than the backend
            # claims to have pushed over the WAN.
            assert perf["wan_bytes"] / 1e6 <= (
                result.cross_dc_megabytes * (1 + 1e-9)
            ), backend

    def perf(backend: str, key: str) -> List[float]:
        return [r.shuffle_perf[key] for r in grouped[backend]]

    assert all(v > 0 for v in perf("push_aggregate", "blocks_pushed"))
    assert all(v > 0 for v in perf("pre_merge", "merge_rounds"))
    assert all(v > 1 for v in perf("pre_merge", "mean_merge_fan_in"))
    # Pre-merge coalesces WAN reads: strictly fewer remote blocks than the
    # per-shard fetch baseline.
    assert _mean(perf("pre_merge", "blocks_fetched")) < _mean(
        perf("fetch", "blocks_fetched")
    )


# ---------------------------------------------------------------------------
# Multi-tenant streams: policies x backends on a shared cluster
# ---------------------------------------------------------------------------
STREAM_JOBS = 1_000  # full size; the check size is the 100-job smoke shape
# A deliberately skewed two-tenant mix: "prod" is heavy-weighted but rare,
# "batch" swamps the queue — where weighted-fair and FIFO must disagree.
TENANTS = (
    TenantSpec("prod", weight=8.0, share=1.0),
    TenantSpec("batch", weight=1.0, share=4.0),
)


def _multitenant(jobs: int) -> Dict[str, Any]:
    """A Poisson stream of ``jobs`` jobs through every admission policy
    under every backend on the jittered Fig. 6 cluster.  The check size
    is the smoke shape: a Sort/WordCount mix under the first backend."""
    smoke = jobs < STREAM_JOBS
    sweep: Dict[Tuple[str, str], RunResult] = {}
    for policy in JOB_POLICIES:
        for scheme in BACKEND_SCHEMES[:1] if smoke else BACKEND_SCHEMES:
            stream = StreamSpec(
                # A high arrival rate keeps the queue loaded, so admission
                # order matters.
                arrival=ArrivalSpec(
                    process="poisson", rate_per_minute=120.0, num_jobs=jobs,
                    mix=("Sort", "WordCount") if smoke else (),
                ),
                tenants=TENANTS, policy=policy, max_concurrent=3,
            )
            result = run_workload_once(
                all_workloads()[0], scheme, 0,
                ExperimentPlan(seeds=(0,), stream=stream),
            )
            sweep[(policy, result.backend)] = result
    return {"jobs": jobs, "sweep": sweep}


def _render_multitenant(data) -> List[str]:
    lines = [
        f"Multi-tenant streams: {data['jobs']} Poisson jobs, tenants "
        + ", ".join(f"{t.name}(w={t.weight:g})" for t in TENANTS),
        f"{'policy':<8}{'backend':<16}{'stream (s)':>11}{'xDC MB':>9}"
        f"{'prod p95':>10}{'batch p95':>11}",
    ]
    for (policy, backend), result in data["sweep"].items():
        prod, batch = (
            result.tenants.get(name, {}).get("jct_p95_s", float("nan"))
            for name in ("prod", "batch")
        )
        lines.append(
            f"{policy:<8}{backend:<16}{result.job_duration:11.1f}"
            f"{result.cross_dc_megabytes:9.1f}{prod:10.2f}{batch:11.2f}"
        )
    return lines


def _check_multitenant(data) -> None:
    jobs, sweep = data["jobs"], data["sweep"]
    for (policy, backend), result in sweep.items():
        cell = f"{policy}/{backend}"
        # Every stream runs to completion: queued jobs all admitted and
        # finished, none stranded by the admission loop.
        assert result.stream["jobs_submitted"] == jobs, cell
        assert result.stream["jobs_completed"] == jobs, cell
        assert result.stream["jobs_failed"] == 0, cell
        for tenant, row in result.tenants.items():
            # Admission-time ledger == completion-time monitor, exactly.
            assert row["bytes"] == row["monitor_bytes"], (cell, tenant)
            assert row["wan_bytes"] == row["monitor_wan_bytes"], (cell, tenant)
            assert row["jobs_completed"] == row["jobs_submitted"], (cell, tenant)
    # Weighted-fair must measurably shift per-tenant p95 JCT against FIFO
    # on the skewed stream (same backend, seed and arrivals).
    backend = next(backend for (_policy, backend) in sweep)
    fifo, fair = (sweep[(p, backend)].tenants for p in ("fifo", "fair"))
    assert any(
        abs(fair[t]["jct_p95_s"] - fifo[t]["jct_p95_s"]) > 1e-6
        for t in ("prod", "batch")
    ), "weighted-fair and FIFO produced identical per-tenant p95 JCT"


# ---------------------------------------------------------------------------
# The chaos campaign
# ---------------------------------------------------------------------------
def _fuzz_campaign(schedules: int):
    """One seeded ``repro fuzz`` campaign over the full backend x policy
    matrix (rotate mode)."""
    return run_campaign(CampaignConfig(
        seed=7, schedules=schedules, events_min=2, events_max=6, minimize=True,
    ))


def _render_fuzz_campaign(report) -> List[str]:
    wall = report.wall_seconds
    rate = report.cells_run / wall if wall else 0.0
    lines = [
        "Chaos campaign (seeded fuzz, rotate mode, full backend matrix)",
        f"  schedules: {report.schedules_drawn}  cells: {report.cells_run}  "
        f"wall: {wall:.2f}s  ({rate:.0f} cells/s)",
        f"  findings: {len(report.findings)}  "
        f"clean fail-stops: {report.job_failures}",
        "  coverage (kind: applied/skipped):",
        *(
            f"    {kind}: {report.kinds_applied.get(kind, 0)}"
            f"/{report.kinds_skipped.get(kind, 0)}"
            for kind in sorted(KINDS)
        ),
        "  recovery paths fired:",
    ]
    return lines + [
        f"    {name}: {total:g}"
        for name, total in sorted(report.recovery_totals.items())
        if total
    ]


def _check_fuzz_campaign(report) -> None:
    # The tree must fuzz clean: a finding is a regression, and its
    # minimized reproducer is in the report.
    assert report.findings == [], report.findings
    assert report.cells_run == report.schedules_drawn  # rotate mode
    # Every chaos kind was drawn and fired, or at least attempted (an
    # outage can be skipped by the last-executor guard) ...
    assert set(report.kinds_applied) | set(report.kinds_skipped) == set(KINDS)
    for kind in ("partition", "degrade", "crash"):
        assert report.kinds_applied.get(kind, 0) > 0, kind
    # ... and the faults genuinely exercised recovery machinery.
    assert report.recovery_totals.get("wan_partitions", 0) > 0


# ---------------------------------------------------------------------------
# The list
# ---------------------------------------------------------------------------
TABLES: Dict[str, Table] = {table.name: table for table in (
    # name, unit, full, check, build, render, checks
    Table("fig1_pipelining", "runs", 1, 1,
          lambda _: (scenarios.fetch_timeline(), scenarios.push_timeline()),
          _render_fig1, _check_fig1),
    Table("fig2_failure", "runs", 1, 1,
          lambda _: (scenarios.fetch_failure_recovery(),
                     scenarios.push_failure_recovery()),
          _render_fig2, _check_fig2),
    Table("eq_model", "instances", 500, 500,
          _eq_model, _render_eq_model, _check_eq_model),
    Table("fig7_jct", "seeds", 10, 1, *_figure("fig7"), _check_fig7),
    Table("fig8_traffic", "seeds", 10, 1, *_figure("fig8"), _check_fig8),
    Table("fig9_stages", "seeds", 10, 1, *_figure("fig9"), _check_fig9),
    Table("headline", "seeds", 10, 1, *_figure("headline"), _check_headline),
    Table("ablation_subset", "seeds", 5, 1, _ablation_subset,
          _render_ablation_subset, _check_ablation_subset),
    Table("ablation_terasort_fix", "seeds", 5, 1, _terasort_fix,
          _render_terasort_fix, _check_terasort_fix),
    Table("ext_baselines", "seeds", 5, 1, _ext_baselines,
          _render_ext_baselines, _check_ext_baselines),
    Table("ext_jitter", "seeds", 5, 2, _ext_jitter,
          _render_ext_jitter, _check_ext_jitter),
    Table("ext_billing", "seeds", 10, 1, _ext_billing,
          _render_ext_billing, _check_ext_billing,
          ("BENCH_billing_frontier.json", lambda data: data)),
    Table("shuffle_backends", "seeds", 10, 1, _shuffle_backends,
          _render_shuffle_backends, _check_shuffle_backends),
    Table("multitenant", "jobs", STREAM_JOBS, 100, _multitenant,
          _render_multitenant, _check_multitenant),
    Table("failure_recovery", "runs", 1, 1, scenarios.build_failure_recovery,
          scenarios.render_failure_recovery, scenarios.check_failure_recovery),
    Table("degraded_links", "runs", 1, 1, scenarios.build_degraded_links,
          scenarios.render_degraded_links, scenarios.check_degraded_links),
    Table("fuzz_campaign", "schedules", 120, 40, _fuzz_campaign,
          _render_fuzz_campaign, _check_fuzz_campaign),
    Table("engine_micro", "pairs", scenarios.ENGINE_PAIRS, 6,
          scenarios.build_engine_micro, lambda data: data["lines"],
          scenarios.check_engine_micro,
          ("BENCH_engine_micro.json", lambda data: data["json"])),
)}


# ---------------------------------------------------------------------------
# Stamps and staleness
# ---------------------------------------------------------------------------
def stamp_line(stamp: Dict[str, Any]) -> str:
    return " ".join(
        [STAMP] + [f"{key}={str(value).lower()}" for key, value in stamp.items()]
    )


def read_stamp(path: Path) -> Optional[Dict[str, Any]]:
    """A tracked table's stamp, or None when it has none."""
    if not path.exists():
        return None
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text).get("stamp")
    first = text.split("\n", 1)[0]
    if not first.startswith(STAMP + " "):
        return None
    return dict(field.split("=", 1) for field in first.split()[2:])


def newest_moved(entries: Sequence[Dict[str, Any]]) -> Optional[int]:
    """Index of the newest trajectory entry whose simulated digests differ
    from those of the entry before it on the same Python minor version."""
    newest, previous = None, {}
    for index, entry in enumerate(entries):
        minor = ".".join(entry["python"].split(".")[:2])
        digests = {
            name: (result["sim_digest"], result["smoke_sim_digest"])
            for name, result in entry["workloads"].items()
        }
        before = previous.get(minor)
        if before is not None and any(
            before[name] != digest
            for name, digest in digests.items()
            if name in before
        ):
            newest = index
        previous[minor] = digests
    return newest


def stamp_problem(
    stamp: Optional[Dict[str, Any]], entries: Sequence[Dict[str, Any]]
) -> Optional[str]:
    """Why a tracked table's stamp fails ``--check``, or None."""
    if stamp is None:
        return "no stamp"
    commits = [entry["commit"] for entry in entries]
    made = next(
        (i for i, c in enumerate(commits) if c.startswith(stamp["trajectory"])),
        None,
    )
    if made is None:
        return f"stamped entry {stamp['trajectory']} is not in the trajectory"
    moved = newest_moved(entries)
    if moved is not None and made < moved:
        return (
            f"stale: made at entry {commits[made][:12]}, before "
            f"{commits[moved][:12]} moved the simulated results"
        )
    return None


# ---------------------------------------------------------------------------
# The entry point
# ---------------------------------------------------------------------------
def run_table(table: Table, smoke: bool, base_stamp: Dict[str, Any]) -> List[str]:
    """Build, write and check one table; returns its failures."""
    size = table.check if smoke else table.full
    directory = RESULTS_DIR / "smoke" if smoke else RESULTS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    stamp = {**base_stamp, table.unit: size, "smoke": smoke}
    try:
        data = table.build(size)
        lines = [stamp_line(stamp), *table.render(data)]
        (directory / table.outputs[0]).write_text("\n".join(lines) + "\n")
        print("\n".join(["", *lines]))
        if table.artifact:
            name, payload = table.artifact
            text = json.dumps({**payload(data), "stamp": stamp}, indent=2, sort_keys=True)
            (directory / name).write_text(text + "\n")
        table.checks(data)
    except AssertionError as error:
        return [f"{table.name}: check failed: {error}"]
    return []


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.tables",
        description="Regenerate the tracked tables (default: all of them).",
    )
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"tables to run, from: {' '.join(TABLES)}")
    parser.add_argument(
        "--check", action="store_true",
        help="run at check size into results/smoke/ and also check the "
        "tracked tables' stamps",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in TABLES]
    if unknown:
        parser.error(f"unknown table(s): {' '.join(unknown)}")
    tables = [TABLES[name] for name in args.names] or list(TABLES.values())
    entries = json.loads(TRAJECTORY.read_text(encoding="utf-8"))
    base_stamp = {
        "commit": git_commit()[:12], "trajectory": entries[-1]["commit"][:12]
    }
    failures = []
    for table in tables:
        failures += run_table(table, args.check, base_stamp)
    if args.check:
        for table in tables:
            for name in table.outputs:
                problem = stamp_problem(read_stamp(RESULTS_DIR / name), entries)
                if problem:
                    failures.append(f"results/{name}: {problem}")
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
