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
run's, and both runs' deterministic counts (every ``per_layer`` metric
whose unit is ``count``: ``simulation.events``, ``network.solves``, each
``<layer>.calls``, ...).  After CI's e2e smoke::

    PYTHONPATH=src python -m benchmarks.check_e2e_trajectory check smoke.json

prints each workload's count deltas against the newest entry recorded on
the same Python minor version, and fails (exit 1) when a smoke
``sim_digest`` or a semantic count (:data:`SEMANTIC_COUNTS`) differs from
that entry's: the simulated results, or the work done to get them, moved.
``<layer>.calls`` counts are recorded but not gated.  A change that moves
them on purpose appends an entry and says why in CHANGES.md.  ``diff A B``
prints what moved between two recorded entries (commit prefixes).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

TRAJECTORY = Path(__file__).resolve().parent / "results" / "BENCH_e2e.json"
# Counts of simulated work: they move only when what is simulated, or how
# much work simulating it takes, changes.
SEMANTIC_COUNTS = (
    "simulation.events",
    "network.flows",
    "network.solves",
    "network.flows_touched",
    "scheduler.stages_run",
)


def _load(path: Path) -> Any:
    return json.loads(path.read_text(encoding="utf-8"))


def _minor(version: str) -> str:
    return ".".join(version.split(".")[:2])


def _quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def _counts(result: Dict[str, Any]) -> Dict[str, float]:
    return {
        name: metric["value"]
        for name, metric in sorted(result["per_layer"].items())
        if metric["unit"] == "count"
    }


def count_deltas(
    old: Optional[Dict[str, float]], new: Dict[str, float]
) -> Tuple[List[str], List[str]]:
    """(one line per count that moved, the semantic counts among them)."""
    if old is None:
        return ["counts not recorded"], []
    lines, moved = [], []
    for name, value in new.items():
        before = old.get(name)
        if before != value:
            lines.append(f"{name}: {before} -> {value}")
            if name in SEMANTIC_COUNTS:
                moved.append(name)
    return lines or [f"{len(new)} counts equal"], moved


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
            "counts": _counts(result),
            "smoke_counts": _counts(smoke["workloads"][name]),
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
        entry = newest["workloads"].get(name, {})
        expected = entry.get("smoke_sim_digest")
        if expected is None:
            status = "not recorded"
        elif result["sim_digest"] == expected:
            status = "ok"
        else:
            status = "MOVED"
            moved.append(name)
        print(f"{name:<20} {result['sim_digest'][:16]}  {status}")
        lines, counts = count_deltas(entry.get("smoke_counts"), _counts(result))
        for line in lines:
            print(f"    {line}")
        moved += [f"{name} {count}" for count in counts]
    print(f"against {newest['commit'][:12]} (python {newest['python']})")
    if moved:
        print(
            f"moved: {', '.join(moved)}: simulated results or simulated work "
            "changed; if that is meant, append an entry and say why in CHANGES.md"
        )
        return 1
    return 0


def diff(first: str, second: str, trajectory: Path) -> int:
    """What moved between two recorded entries, named by commit prefix."""
    entries = _load(trajectory)

    def find(prefix: str) -> Dict[str, Any]:
        found = [e for e in entries if e["commit"].startswith(prefix)]
        if len(found) != 1:
            raise SystemExit(f"{prefix}: {len(found)} entries match")
        return found[0]

    old, new = find(first), find(second)
    print(f"{old['commit'][:12]} (python {old['python']}) -> "
          f"{new['commit'][:12]} (python {new['python']})")
    for name, result in sorted(new["workloads"].items()):
        before = old["workloads"].get(name, {})
        same = all(
            before.get(key) == result[key]
            for key in ("sim_digest", "smoke_sim_digest")
        )
        wall = [
            w["end_to_end"]["wall_s"]["median"] if w else float("nan")
            for w in (before, result)
        ]
        print(f"{name:<20} digests {'equal' if same else 'MOVED'}  "
              f"wall_s {wall[0]:.3f} -> {wall[1]:.3f}")
        lines = ["counts not recorded"]
        if "counts" in result:
            lines, _moved = count_deltas(before.get("counts"), result["counts"])
        for line in lines:
            print(f"    {line}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.check_e2e_trajectory")
    parser.add_argument("--trajectory", type=Path, default=TRAJECTORY)
    commands = parser.add_subparsers(dest="command", required=True)
    add = commands.add_parser("append", help="record a commit's full + smoke aggregates")
    add.add_argument("full", type=Path)
    add.add_argument("smoke", type=Path)
    compare = commands.add_parser(
        "check", help="compare a smoke aggregate's digests and counts"
    )
    compare.add_argument("smoke", type=Path)
    between = commands.add_parser("diff", help="compare two recorded entries")
    between.add_argument("first", help="commit prefix of the older entry")
    between.add_argument("second", help="commit prefix of the newer entry")
    args = parser.parse_args(argv)
    if args.command == "append":
        return append(args.full, args.smoke, args.trajectory)
    if args.command == "diff":
        return diff(args.first, args.second, args.trajectory)
    return check(args.smoke, args.trajectory)


if __name__ == "__main__":
    sys.exit(main())
