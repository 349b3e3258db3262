"""The checked-in end-to-end trajectory and its checker
(``benchmarks/check_e2e_trajectory.py``)."""

from __future__ import annotations

import json

import pytest

from benchmarks import check_e2e_trajectory as trajectory


def _aggregate(commit, smoke, digests, python="3.11.7", events=100, calls=7):
    return {
        "commit": commit, "seed": 0, "python": python, "numpy": "2.4.6",
        "nproc": 2, "runs": 1 if smoke else 3, "smoke": smoke,
        "workloads": {
            name: {
                "errors": [],
                "sim_digest": digest,
                "end_to_end": {
                    "wall_s": {"median": 0.5, "values": [0.4, 0.5, 0.7], "unit": "s"},
                },
                "per_layer": {
                    "simulation.events": {"value": events, "unit": "count"},
                    "rdd.calls": {"value": calls, "unit": "count"},
                    "rdd.self_s": {"value": 0.1, "unit": "s"},
                },
            }
            for name, digest in digests.items()
        },
    }


def _write(path, value):
    path.write_text(json.dumps(value))
    return path


def test_checked_in_trajectory_is_well_formed():
    entries = json.loads(trajectory.TRAJECTORY.read_text())
    commits = [entry["commit"] for entry in entries]
    assert len(entries) >= 2 and len(set(commits)) == len(commits)
    for entry in entries:
        assert {"python", "numpy", "nproc", "seed"} <= set(entry)
        assert len(entry["workloads"]) == 6
        for result in entry["workloads"].values():
            assert result["sim_digest"] and result["smoke_sim_digest"]
            assert set(result.get("counts", {})) == set(result.get("smoke_counts", {}))
            low, high = result["end_to_end"]["wall_s"]["quartiles"]
            assert low <= result["end_to_end"]["wall_s"]["median"] <= high


def test_append_then_check(tmp_path, capsys):
    path = tmp_path / "BENCH_e2e.json"
    full = _write(tmp_path / "full.json", _aggregate("abc", False, {"w": "full1"}))
    smoke = _write(tmp_path / "smoke.json", _aggregate("abc", True, {"w": "smoke1"}))
    assert trajectory.main(["--trajectory", str(path), "append", str(full), str(smoke)]) == 0
    (entry,) = json.loads(path.read_text())
    assert entry["workloads"]["w"]["smoke_sim_digest"] == "smoke1"
    assert entry["workloads"]["w"]["end_to_end"]["wall_s"]["quartiles"] == [0.45, 0.6]
    with pytest.raises(SystemExit, match="append-only"):
        trajectory.main(["--trajectory", str(path), "append", str(full), str(smoke)])

    def check(digest, python="3.11.2"):
        run = _write(tmp_path / "ci.json", _aggregate("ci", True, {"w": digest}, python))
        return trajectory.main(["--trajectory", str(path), "check", str(run)])

    assert check("smoke1") == 0
    assert check("moved") == 1
    assert "MOVED" in capsys.readouterr().out
    assert check("moved", python="3.12.1") == 0  # nothing recorded on 3.12


def test_checked_in_trajectory_records_counts_from_the_first_entry_with_them():
    entries = json.loads(trajectory.TRAJECTORY.read_text())
    first = next(
        i for i, e in enumerate(entries)
        if "counts" in next(iter(e["workloads"].values()))
    )
    for entry in entries[first:]:
        for result in entry["workloads"].values():
            assert set(trajectory.SEMANTIC_COUNTS) <= set(result["counts"])
            assert set(trajectory.SEMANTIC_COUNTS) <= set(result["smoke_counts"])


def test_check_gates_semantic_counts_and_diff_compares_entries(tmp_path, capsys):
    path = tmp_path / "BENCH_e2e.json"
    path.write_text(json.dumps([
        # An entry from before counts were recorded.
        {"commit": "old", "python": "3.11.7", "workloads": {"w": {
            "sim_digest": "full1", "smoke_sim_digest": "smoke1",
            "end_to_end": {"wall_s": {"median": 0.6}},
        }}},
    ]))
    full = _write(tmp_path / "full.json", _aggregate("new", False, {"w": "full1"}))
    smoke = _write(tmp_path / "smoke.json", _aggregate("new", True, {"w": "smoke1"}))

    def check(**counts):
        run = _write(
            tmp_path / "ci.json", _aggregate("ci", True, {"w": "smoke1"}, **counts)
        )
        return trajectory.main(["--trajectory", str(path), "check", str(run)])

    assert check() == 0
    assert "counts not recorded" in capsys.readouterr().out
    assert trajectory.main(["--trajectory", str(path), "append", str(full), str(smoke)]) == 0
    (_old, entry) = json.loads(path.read_text())
    assert entry["workloads"]["w"]["counts"] == {"rdd.calls": 7, "simulation.events": 100}
    assert check() == 0
    assert "2 counts equal" in capsys.readouterr().out
    assert check(calls=9) == 0  # <layer>.calls: recorded, printed, not gated
    assert "rdd.calls: 7 -> 9" in capsys.readouterr().out
    assert check(events=101) == 1  # a semantic count moved
    assert "simulation.events: 100 -> 101" in capsys.readouterr().out

    assert trajectory.main(["--trajectory", str(path), "diff", "old", "new"]) == 0
    out = capsys.readouterr().out
    assert "digests equal" in out and "wall_s 0.600 -> 0.500" in out
    assert "counts not recorded" in out
    with pytest.raises(SystemExit, match="0 entries match"):
        trajectory.main(["--trajectory", str(path), "diff", "old", "nope"])
