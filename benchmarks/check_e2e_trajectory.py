"""The checked-in end-to-end trajectory, ``results/BENCH_e2e.json``.

An append-only list of entries keyed by commit, one per measured commit,
each written from two aggregates of ``python -m benchmarks.e2e`` at the
same seed — a full one and a ``--smoke`` one::

    PYTHONPATH=src python -m benchmarks.e2e --seed 0 --out full.json
    PYTHONPATH=src python -m benchmarks.e2e --seed 0 --smoke --out smoke.json
    PYTHONPATH=src python -m benchmarks.check_e2e_trajectory append full.json smoke.json

An entry records the interpreter, numpy, the core count and the seed, and
per workload the end-to-end medians with their quartiles (host times:
recorded, never gated), the full run's ``sim_digest`` and the smoke
run's.  After CI's e2e smoke::

    PYTHONPATH=src python -m benchmarks.check_e2e_trajectory check smoke.json

fails (exit 1) when a workload's smoke ``sim_digest`` differs from the
one in the newest entry recorded on the same Python minor version: the
simulated results moved.  A change that moves them on purpose appends an
entry and says why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

TRAJECTORY = Path(__file__).resolve().parent / "results" / "BENCH_e2e.json"


def _load(path: Path) -> Any:
    return json.loads(path.read_text(encoding="utf-8"))


def _minor(version: str) -> str:
    return ".".join(version.split(".")[:2])


def _quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def make_entry(full: Dict[str, Any], smoke: Dict[str, Any]) -> Dict[str, Any]:
    """One trajectory entry from a full and a smoke aggregate of the same
    commit and seed."""
    if full["smoke"] or not smoke["smoke"]:
        raise SystemExit("need a full aggregate first and a --smoke one second")
    for key in ("commit", "seed", "python"):
        if full[key] != smoke[key]:
            raise SystemExit(f"aggregates differ in {key}: {full[key]} / {smoke[key]}")
    workloads = {}
    for name, result in sorted(full["workloads"].items()):
        if result["errors"] or name not in smoke["workloads"]:
            raise SystemExit(f"{name}: failed checks or missing from the smoke run")
        workloads[name] = {
            "end_to_end": {
                metric: {
                    "median": stats["median"],
                    "quartiles": _quartiles(stats["values"]),
                    "unit": stats["unit"],
                }
                for metric, stats in sorted(result["end_to_end"].items())
            },
            "sim_digest": result["sim_digest"],
            "smoke_sim_digest": smoke["workloads"][name]["sim_digest"],
        }
    return {
        "commit": full["commit"],
        "python": full["python"],
        "numpy": full["numpy"],
        "nproc": full["nproc"],
        "seed": full["seed"],
        "runs": full["runs"],
        "workloads": workloads,
    }


def append(full_path: Path, smoke_path: Path, trajectory: Path) -> int:
    entries = _load(trajectory) if trajectory.exists() else []
    entry = make_entry(_load(full_path), _load(smoke_path))
    if any(old["commit"] == entry["commit"] for old in entries):
        raise SystemExit(f"{entry['commit']} is already recorded (append-only)")
    entries.append(entry)
    trajectory.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"appended {entry['commit']} (python {entry['python']}) to {trajectory}")
    return 0


def check(smoke_path: Path, trajectory: Path) -> int:
    smoke = _load(smoke_path)
    if not smoke["smoke"]:
        raise SystemExit("check reads a --smoke aggregate")
    minor = _minor(smoke["python"])
    recorded = [e for e in _load(trajectory) if _minor(e["python"]) == minor]
    if not recorded:
        print(f"no entry recorded on Python {minor}: nothing to compare")
        return 0
    newest = recorded[-1]
    moved = []
    for name, result in sorted(smoke["workloads"].items()):
        expected = newest["workloads"].get(name, {}).get("smoke_sim_digest")
        if expected is None:
            status = "not recorded"
        elif result["sim_digest"] == expected:
            status = "ok"
        else:
            status = "MOVED"
            moved.append(name)
        print(f"{name:<20} {result['sim_digest'][:16]}  {status}")
    print(f"against {newest['commit'][:12]} (python {newest['python']})")
    if moved:
        print(
            f"smoke sim_digest moved on {', '.join(moved)}: simulated results "
            "changed; if that is meant, append an entry and say why in CHANGES.md"
        )
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.check_e2e_trajectory")
    parser.add_argument("--trajectory", type=Path, default=TRAJECTORY)
    commands = parser.add_subparsers(dest="command", required=True)
    add = commands.add_parser("append", help="record a commit's full + smoke aggregates")
    add.add_argument("full", type=Path)
    add.add_argument("smoke", type=Path)
    compare = commands.add_parser("check", help="compare a smoke aggregate's digests")
    compare.add_argument("smoke", type=Path)
    args = parser.parse_args(argv)
    if args.command == "append":
        return append(args.full, args.smoke, args.trajectory)
    return check(args.smoke, args.trajectory)


if __name__ == "__main__":
    sys.exit(main())
