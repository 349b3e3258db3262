#!/usr/bin/env python3
"""Judge two aggregates of ``python -m benchmarks.e2e --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the baseline (parent commit), B the change.  One row per
(end-to-end metric, workload) with both medians, their min-max and a
verdict:

* ``regressed``  — B's median is worse than A's by more than the bound
  and by more than the run-to-run spread;
* ``unresolved`` — the spread of either side's runs (the distance
  between their quartiles) is wider than the bound, or hides a
  worsening beyond it: rerun on a quieter machine;
* ``improved``   — B is better by more than the spread;
* ``unchanged``  — anything else.

Also reports whether ``sim_digest`` moved, which deterministic counts
moved, and the per-layer self-time shifts (traced shares scaled to the
untraced ``wall_s``) that account for a ``wall_s`` change.  Exits 1 on
any ``regressed`` row or any rise in ``failed_op_ratio``, 2 when the two
files are not comparable (smoke runs never are).
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Sequence, Tuple

if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path[0:1] = [
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    ]

from benchmarks.e2e import metrics  # noqa: E402

COMPARABLE_KEYS = ("schema", "seed", "seconds", "scale")


def worsening(a: float, b: float, better: str) -> float:
    """Signed share of A by which B is worse (negative = better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def spread(stats: Dict[str, Any]) -> float:
    """Run-to-run spread: the distance between the quartiles of the
    runs, as a share of their median (0 for a single run)."""
    values, median = stats["values"], stats["median"]
    if len(values) < 2 or not median:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / abs(median)


def verdict(worse: float, noise: float, bound: float) -> str:
    if worse > bound:
        return "regressed" if worse > noise else "unresolved"
    if noise > bound:
        return "unresolved"
    if worse < 0 and -worse > noise:
        return "improved"
    return "unchanged"


def end_to_end_rows(
    name: str, a: Dict[str, Any], b: Dict[str, Any]
) -> List[Tuple[str, ...]]:
    rows = []
    for metric, bound in metrics.END_TO_END:
        # Both files ran the same seed, so simulated results compare at
        # the tight same-seed bound, not the cross-seed one.
        bound = metrics.SAME_SEED_BOUNDS.get(metric.name, bound)
        sa, sb = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
        worse = worsening(sa["median"], sb["median"], metric.better)
        noise = max(spread(sa), spread(sb))
        rows.append((
            name,
            metric.name,
            metric.unit,
            f"{sa['median']:.6g} [{sa['min']:.6g}..{sa['max']:.6g}]",
            f"{sb['median']:.6g} [{sb['min']:.6g}..{sb['max']:.6g}]",
            f"{-100 * worse:+.2f}%" if metric.better == "higher"
            else f"{100 * worse:+.2f}%",
            f"{100 * bound:g}%",
            verdict(worse, noise, bound),
        ))
    return rows


def result_rows(
    name: str, a: Dict[str, Any], b: Dict[str, Any]
) -> List[Tuple[str, ...]]:
    """Results that ride in the per-layer list with a same-seed bound.
    There is one traced value per side and so no measured spread; a
    quarter of the bound stands in for it (peak RSS repeats within
    about 1.5 %, simulated results exactly)."""
    rows = []
    for metric_name, (kind, bound) in metrics.PER_LAYER_BOUNDS.items():
        va = a["per_layer"][metric_name]["value"]
        vb = b["per_layer"][metric_name]["value"]
        if va == 0 and vb == 0:
            continue  # does not apply to this workload
        better = metrics.BETTER[metric_name]
        if kind == "points":
            worse = (va - vb) if better == "higher" else (vb - va)
            shown, limit = f"{vb - va:+.3f}pp", f"{bound:g}pp"
        else:
            worse = worsening(va, vb, better)
            shown, limit = f"{100 * (vb - va) / abs(va):+.3f}%", f"{100 * bound:g}%"
        rows.append((
            name,
            metric_name,
            metrics.UNITS[metric_name],
            f"{va:.6g}",
            f"{vb:.6g}",
            shown,
            limit,
            verdict(worse, bound / 4, bound),
        ))
    return rows


def moved_counts(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Per-layer metrics that repeat exactly and yet differ."""
    exact = [
        m.name
        for m in metrics.PER_LAYER
        if m.base in ("count", "simulated") and m.name not in metrics.PER_LAYER_BOUNDS
    ]
    return [
        f"{name}: {a['per_layer'][name]['value']:.10g} -> "
        f"{b['per_layer'][name]['value']:.10g}"
        for name in exact
        if a["per_layer"][name]["value"] != b["per_layer"][name]["value"]
    ]


def layer_shifts(a: Dict[str, Any], b: Dict[str, Any]) -> List[Tuple[str, float]]:
    """Estimated untraced seconds each layer gained or lost: its share
    of traced self time, scaled to the side's median ``wall_s``."""

    def estimate(side: Dict[str, Any]) -> Dict[str, float]:
        selfs = {
            layer: side["per_layer"][f"{layer}.self_s"]["value"]
            for layer in metrics.LAYERS
        }
        total = sum(selfs.values()) or 1.0
        wall = side["end_to_end"]["wall_s"]["median"]
        return {layer: wall * value / total for layer, value in selfs.items()}

    ea, eb = estimate(a), estimate(b)
    shifts = [(layer, eb[layer] - ea[layer]) for layer in metrics.LAYERS]
    return sorted(shifts, key=lambda item: -abs(item[1]))[:5]


def print_table(rows: Sequence[Tuple[str, ...]]) -> None:
    header = ("workload", "metric", "unit", "A median [min..max]",
              "B median [min..max]", "B vs A", "bound", "verdict")
    table = [header, *rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    sides = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            sides.append(json.load(handle))
    a, b = sides
    for label, side in zip("AB", sides):
        if side.get("smoke"):
            print(f"{label} is a --smoke result: never comparable to a baseline")
            return 2
    for key in COMPARABLE_KEYS:
        if a.get(key) != b.get(key):
            print(f"not comparable: {key} is {a.get(key)!r} in A, {b.get(key)!r} in B")
            return 2
    shared = [name for name in a["workloads"] if name in b["workloads"]]
    if not shared:
        print("not comparable: no workload in common")
        return 2

    print(f"A: commit {a['commit']}   B: commit {b['commit']}   seed {a['seed']}")
    rows: List[Tuple[str, ...]] = []
    failures: List[str] = []
    notes: List[str] = []
    for name in shared:
        wa, wb = a["workloads"][name], b["workloads"][name]
        rows += end_to_end_rows(name, wa, wb) + result_rows(name, wa, wb)
        if wb["failed_op_ratio"] > wa["failed_op_ratio"]:
            failures.append(
                f"{name}: failed_op_ratio rose "
                f"{wa['failed_op_ratio']:.6g} -> {wb['failed_op_ratio']:.6g}"
            )
        if wa["noisy"] or wb["noisy"]:
            notes.append(f"{name}: a run was flagged noisy (load average)")
        if wa["sim_digest"] == wb["sim_digest"]:
            notes.append(f"{name}: sim_digest identical")
        else:
            notes.append(
                f"{name}: sim_digest MOVED "
                f"({wa['sim_digest'][:12]} -> {wb['sim_digest'][:12]})"
            )
        notes.extend(
            f"{name}: count moved: {line}" for line in moved_counts(wa, wb)
        )
        walls = [side["end_to_end"]["wall_s"]["median"] for side in (wa, wb)]
        delta = walls[1] - walls[0]
        shifts = ", ".join(
            f"{layer} {shift:+.4f}s" for layer, shift in layer_shifts(wa, wb)
        )
        notes.append(f"{name}: wall_s {delta:+.4f}s; largest layer shifts: {shifts}")
    print_table(rows)
    print()
    for note in notes:
        print(note)
    failures += [
        f"{row[0]}: {row[1]} regressed ({row[5]}, bound {row[6]})"
        for row in rows
        if row[-1] == "regressed"
    ]
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
