"""The paper's Fig. 7, Fig. 8, Fig. 9 and headline tables, aggregated and
rendered once.

Each aggregation consumes :class:`~repro.experiments.runner.RunResult`
lists (typically produced by ``run_matrix``) and returns plain data
structures; each ``render_*`` turns one into the text table that both
``repro fig7|fig8|headline`` and ``python -m benchmarks.tables`` print,
so the command line and the tracked tables cannot disagree.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from repro.experiments.runner import RunResult
from repro.experiments.schemes import Scheme
from repro.metrics.stats import SummaryStats, reduction_percent, summarize

# Row and column order of every rendered figure (Table I, Figs. 7-9).
WORKLOADS = ("WordCount", "Sort", "TeraSort", "PageRank", "NaiveBayes")
SCHEMES = ("Spark", "Centralized", "AggShuffle")


def _group(
    results: Sequence[RunResult],
) -> Dict[Tuple[str, Scheme], List[RunResult]]:
    grouped: Dict[Tuple[str, Scheme], List[RunResult]] = defaultdict(list)
    for result in results:
        grouped[(result.workload, result.scheme)].append(result)
    return grouped


def fig7_job_completion_times(
    results: Sequence[RunResult],
) -> Dict[str, Dict[str, SummaryStats]]:
    """Fig. 7: per workload x scheme, the job-completion-time summary
    (10 %-trimmed mean bar, median dot, interquartile error bar)."""
    figure: Dict[str, Dict[str, SummaryStats]] = {}
    for (workload, scheme), cell in _group(results).items():
        figure.setdefault(workload, {})[scheme.value] = summarize(
            [run.duration for run in cell]
        )
    return figure


def fig8_cross_dc_traffic(
    results: Sequence[RunResult],
    workloads: Sequence[str] = ("Sort", "TeraSort", "PageRank", "NaiveBayes"),
) -> Dict[str, Dict[str, float]]:
    """Fig. 8: average cross-datacenter traffic (MB) per workload x scheme.

    The paper's Fig. 8 plots Sort, TeraSort, PageRank, and NaiveBayes;
    for Centralized the bars include the initial centralisation traffic
    ("the cross-region traffic to aggregate all data into the
    centralized datacenter").
    """
    figure: Dict[str, Dict[str, float]] = {}
    for (workload, scheme), cell in _group(results).items():
        if workload not in workloads:
            continue
        if scheme is Scheme.CENTRALIZED:
            # Paper semantics: the Centralized bar is the traffic needed
            # to aggregate all raw data into the central datacenter.
            mean = sum(
                run.cross_dc_by_tag.get("centralize", 0.0) for run in cell
            ) / len(cell)
        else:
            mean = sum(run.cross_dc_megabytes for run in cell) / len(cell)
        figure.setdefault(workload, {})[scheme.value] = mean
    return figure


def fig9_stage_breakdown(
    results: Sequence[RunResult],
) -> Dict[str, Dict[str, List[SummaryStats]]]:
    """Fig. 9: per workload x scheme, one SummaryStats per stage position.

    Stages are matched across seeds by their order of submission (stage
    ids are globally unique, so position is the stable key).
    """
    figure: Dict[str, Dict[str, List[SummaryStats]]] = {}
    for (workload, scheme), cell in _group(results).items():
        by_position: Dict[int, List[float]] = defaultdict(list)
        for run in cell:
            for position, stage in enumerate(run.stages):
                by_position[position].append(stage.duration)
        stages = [
            summarize(by_position[position])
            for position in sorted(by_position)
        ]
        figure.setdefault(workload, {})[scheme.value] = stages
    return figure


def headline_numbers(results: Sequence[RunResult]) -> Dict[str, Dict[str, float]]:
    """The §V summary: per workload, JCT and traffic reduction of
    AggShuffle relative to Spark (paper: 14-73 % JCT, 16-90 % traffic)."""
    jct = fig7_job_completion_times(results)
    headline: Dict[str, Dict[str, float]] = {}
    grouped = _group(results)
    for workload, by_scheme in jct.items():
        spark = by_scheme.get(Scheme.SPARK.value)
        agg = by_scheme.get(Scheme.AGGSHUFFLE.value)
        if spark is None or agg is None:
            continue
        entry: Dict[str, float] = {
            "jct_reduction_pct": reduction_percent(spark.trimmed, agg.trimmed),
            "spark_jct": spark.trimmed,
            "aggshuffle_jct": agg.trimmed,
            "spark_iqr": spark.iqr_width,
            "aggshuffle_iqr": agg.iqr_width,
        }
        spark_runs = grouped.get((workload, Scheme.SPARK), [])
        agg_runs = grouped.get((workload, Scheme.AGGSHUFFLE), [])
        if spark_runs and agg_runs:
            spark_traffic = sum(
                run.cross_dc_megabytes for run in spark_runs
            ) / len(spark_runs)
            agg_traffic = sum(
                run.cross_dc_megabytes for run in agg_runs
            ) / len(agg_runs)
            entry["traffic_reduction_pct"] = reduction_percent(
                spark_traffic, agg_traffic
            )
            entry["spark_traffic_mb"] = spark_traffic
            entry["aggshuffle_traffic_mb"] = agg_traffic
        headline[workload] = entry
    return headline


def _rows(figure) -> List[str]:
    return [workload for workload in WORKLOADS if workload in figure]


def render_fig7(figure: Dict[str, Dict[str, SummaryStats]]) -> List[str]:
    lines = [
        "Fig. 7 — job completion time (seconds), trimmed mean "
        "[median, q25-q75]",
        f"{'workload':<12}" + "".join(f"{s:>28}" for s in SCHEMES),
    ]
    for workload in _rows(figure):
        cells = [
            f"{stats.trimmed:9.1f} [{stats.median:7.1f},"
            f" {stats.q25:6.1f}-{stats.q75:6.1f}]"
            for stats in (figure[workload][scheme] for scheme in SCHEMES)
        ]
        lines.append(f"{workload:<12}" + "".join(f"{c:>28}" for c in cells))
    return lines


def render_fig8(figure: Dict[str, Dict[str, float]]) -> List[str]:
    lines = [
        "Fig. 8 — cross-datacenter traffic (MB, mean over runs)",
        f"{'workload':<12}" + "".join(f"{s:>14}" for s in SCHEMES),
    ]
    for workload in _rows(figure):
        cells = [figure[workload].get(s, float("nan")) for s in SCHEMES]
        lines.append(f"{workload:<12}" + "".join(f"{c:14.1f}" for c in cells))
    return lines


def render_fig9(figure: Dict[str, Dict[str, List[SummaryStats]]]) -> List[str]:
    lines = ["Fig. 9 — stage durations (s), trimmed mean [q25-q75]"]
    for workload in _rows(figure):
        lines += ["", workload]
        for scheme in SCHEMES:
            cells = " | ".join(
                f"s{i}: {s.trimmed:7.1f} [{s.q25:6.1f}-{s.q75:6.1f}]"
                for i, s in enumerate(figure[workload].get(scheme, []))
            )
            lines.append(f"  {scheme:<12} {cells}")
    return lines


def render_headline(headline: Dict[str, Dict[str, float]]) -> List[str]:
    lines = [
        "Headline — AggShuffle vs Spark",
        f"{'workload':<12}{'JCT red. %':>12}{'traffic red. %':>16}"
        f"{'Spark IQR':>12}{'Agg IQR':>10}",
    ]
    for workload in _rows(headline):
        entry = headline[workload]
        lines.append(
            f"{workload:<12}{entry['jct_reduction_pct']:12.1f}"
            f"{entry.get('traffic_reduction_pct', float('nan')):16.1f}"
            f"{entry['spark_iqr']:12.1f}{entry['aggshuffle_iqr']:10.1f}"
        )
    return lines


# Each figure's aggregation and renderer, by the command that prints it.
FIGURES = {
    "fig7": (fig7_job_completion_times, render_fig7),
    "fig8": (fig8_cross_dc_traffic, render_fig8),
    "fig9": (fig9_stage_breakdown, render_fig9),
    "headline": (headline_numbers, render_headline),
}
