"""Run every workload in fresh child interpreters and aggregate.

    PYTHONPATH=src python -m benchmarks.e2e --seed S [--runs N]
        [--workload W] [--smoke] [--out FILE]

Per workload: ``--runs`` untraced children (one at a time, single
thread, ``PYTHONHASHSEED`` 0, 1, 2, ... so hash-order nondeterminism
surfaces as a ``sim_digest`` mismatch) give the end-to-end metrics as
median/min/max; one traced child gives the per-layer metrics.  Prints
every metric by name with its unit, checks every child's oracles and
that ``sim_digest`` agrees across all of them, and exits non-zero if
any check fails.  ``--out`` writes the aggregate ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.e2e import metrics
from benchmarks.e2e.workloads import SCALE

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_PY = os.path.join(HERE, "run.py")
SCHEMA = 1

# The repo's reference result, printed beside ours (paper §V).
PAPER_BANDS = {
    "agg_jct_reduction_pct": "paper: 14-73 %",
    "agg_wan_reduction_pct": "paper: 16-91 %",
}


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def child_env(hashseed: int) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hashseed)
    for name in ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(
    workload: str,
    seed: int,
    seconds: float,
    scale: float,
    trace: int,
    hashseed: int,
) -> Dict[str, Any]:
    """One fresh interpreter running ``run.py``; returns its report, with
    ``exit_code`` added."""
    command = [
        sys.executable, RUN_PY,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--scale", repr(scale),
        "--trace", str(trace),
        "--report",
    ]
    done = subprocess.run(
        command,
        cwd=ROOT,
        env=child_env(hashseed),
        capture_output=True,
        text=True,
        timeout=900,
    )
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(
            f"{workload}: child printed no report (exit {done.returncode})"
        )
    report = json.loads(lines[-2])["report"]
    report["exit_code"] = done.returncode
    return report


def summarize(values: Sequence[float], unit: str) -> Dict[str, Any]:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "unit": unit,
        "values": list(values),
    }


def aggregate_workload(
    untraced: List[Dict[str, Any]], traced: Dict[str, Any]
) -> Dict[str, Any]:
    """Fold one workload's child reports and run the cross-run checks."""
    errors: List[str] = []
    for report in (*untraced, traced):
        label = f"run(trace={report['trace']}, hashseed={report['env']['hashseed']})"
        errors.extend(f"{label}: {error}" for error in report["errors"])
        if report["exit_code"] != 0 and not report["errors"]:
            errors.append(f"{label}: exit code {report['exit_code']}")

    # Same seed, same inputs: every run must simulate the same thing.
    # Runs differ only in PYTHONHASHSEED, and the traced run (hash seed
    # 0, like the first untraced run) replays a prefix of the rounds.
    first = untraced[0]
    prefix = first["round_digests"][: traced["rounds"]]
    if traced["round_digests"] != prefix:
        errors.append(
            "sim_digest of the traced run differs from the untraced run "
            "with the same PYTHONHASHSEED: profiling perturbed the simulation"
        )
    same_hashseed = [
        r for r in untraced if r["env"]["hashseed"] == first["env"]["hashseed"]
    ]
    if any(r["sim_digest"] != first["sim_digest"] for r in same_hashseed):
        errors.append("sim_digest differs between runs with equal PYTHONHASHSEED")
    hashseed_stable = all(
        r["sim_digest"] == first["sim_digest"] for r in untraced
    )

    end_to_end = {}
    for metric, _bound in metrics.END_TO_END:
        values = [
            r["result"]["metrics"][metric.name]["value"] for r in untraced
        ]
        end_to_end[metric.name] = summarize(values, metric.unit)
    per_layer = {
        name: traced["result"]["metrics"][name] for name in metrics.PER_LAYER_NAMES
    }
    attempted = sum(r["result"]["attempted"] for r in untraced)
    failed = sum(r["result"]["failed"] for r in untraced)
    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "attempted": attempted,
        "failed": failed,
        "failed_op_ratio": failed / attempted if attempted else 1.0,
        "sim_digest": first["sim_digest"],
        "round_digests": first["round_digests"],
        "determinism": {"hashseed_stable": hashseed_stable},
        "noisy": any(r["env"]["noisy"] for r in (*untraced, traced)),
        "errors": errors,
    }


def print_workload(name: str, result: Dict[str, Any]) -> None:
    print(f"\n== {name} ==")
    print(
        f"  sim_digest {result['sim_digest'][:16]}  "
        f"hashseed_stable={result['determinism']['hashseed_stable']}  "
        f"noisy={result['noisy']}  failed_op_ratio="
        f"{result['failed_op_ratio']:.6g} ({result['failed']}/{result['attempted']})"
    )
    print("  end-to-end (untraced runs): median [min .. max] n")
    for metric, stats in result["end_to_end"].items():
        print(
            f"    {metric:<20} {stats['median']:>14.6g} {stats['unit']:<6}"
            f" [{stats['min']:.6g} .. {stats['max']:.6g}] n={stats['n']}"
        )
    print("  per-layer (traced run; 0 = layer idle or metric not applicable)")
    for metric, entry in result["per_layer"].items():
        note = PAPER_BANDS.get(metric, "")
        print(
            f"    {metric:<34} {entry['value']:>14.6g} {entry['unit']:<6} {note}"
        )
    for error in result["errors"]:
        print(f"  CHECK FAILED: {error}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument(
        "--workload",
        action="append",
        choices=metrics.WORKLOAD_NAMES,
        help="run only this workload (repeatable; default: all six)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="SCALE / 10, one untraced run of one round, traced run kept; "
        "whole command < 60 s.  A smoke result is never comparable.",
    )
    parser.add_argument("--out", help="write the aggregate JSON here")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        seconds = float(json.load(handle)["run_seconds"])
    runs, scale = args.runs, SCALE
    if args.smoke:
        runs, scale, seconds = 1, SCALE / 10.0, 1.0
    names = args.workload or list(metrics.WORKLOAD_NAMES)

    # One discarded child warms the bytecode cache, so no measured
    # child's set-up pays compilation.
    subprocess.run(
        [sys.executable, "-c", "import repro.cli"],
        cwd=ROOT,
        env={**child_env(0), "PYTHONPATH": os.path.join(ROOT, "src")},
        check=True,
        timeout=300,
    )
    out: Dict[str, Any] = {
        "schema": SCHEMA,
        "commit": git_commit(),
        "seed": args.seed,
        "runs": runs,
        "seconds": seconds,
        "scale": scale,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "loadavg_1m_start": os.getloadavg()[0],
        "workloads": {},
    }
    for name in names:
        untraced = [
            run_child(name, args.seed, seconds, scale, 0, hashseed=index % 3)
            for index in range(runs)
        ]
        traced = run_child(name, args.seed, seconds, scale, 1, hashseed=0)
        out["python"] = traced["env"]["python"]
        out["numpy"] = traced["env"]["numpy"]
        out["workloads"][name] = aggregate_workload(untraced, traced)
        print_workload(name, out["workloads"][name])
    out["loadavg_1m_end"] = os.getloadavg()[0]

    print(
        f"\ncommit {out['commit']}  python {out.get('python')}  numpy "
        f"{out.get('numpy')}  nproc {out['nproc']}  load "
        f"{out['loadavg_1m_start']:.2f}->{out['loadavg_1m_end']:.2f}  "
        f"SCALE {scale:g}  seed {args.seed}  smoke {args.smoke}"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(out, handle, indent=1, sort_keys=True)
            handle.write("\n")
    failures = sum(len(w["errors"]) for w in out["workloads"].values())
    if failures:
        print(f"{failures} check(s) FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
