"""Self-tests of the benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import itertools
import json
import os
import re
import subprocess
import sys

import pytest

from benchmarks.e2e import __main__ as aggregate
from benchmarks.e2e import harness, layers, metrics, workloads

ROOT = aggregate.ROOT
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_every_source_file_folds_to_one_named_layer():
    seen = set()
    for directory, _dirs, files in os.walk(harness.REPRO_DIR):
        for file in files:
            if not file.endswith(".py"):
                continue
            path = os.path.join(directory, file)
            layer = layers.layer_of_file(path, harness.REPRO_DIR)
            assert layer in metrics.LAYERS, path
            assert layer not in ("repro.other", "native", "harness"), path
            seen.add(layer)
    # Every simulator layer has at least one file behind it.
    assert seen == set(metrics.LAYERS) - {"native", "harness", "repro.other"}


def test_unknown_modules_fall_to_their_package_then_to_other():
    assert layers.layer_of_repro_path("network/new_module.py") == "network.fabric"
    assert layers.layer_of_repro_path("shuffle/backends/tree.py") == "shuffle.backends"
    assert layers.layer_of_repro_path("newpkg/thing.py") == "repro.other"
    assert layers.layer_of_file(__file__, harness.REPRO_DIR) == "harness"
    assert layers.layer_of_file(os.__file__, harness.REPRO_DIR) == "native"


def test_declared_names_match_benchmark_json():
    doc = _benchmark_json()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in doc["workloads"]] == list(metrics.WORKLOAD_NAMES)
    assert len(doc["workloads"]) == 6
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    ] == [(m.name, m.unit, m.better, bound) for m, bound in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER
    ]
    assert len(doc["end_to_end"]) <= 16 and len(doc["per_layer"]) <= 128
    assert "setup_s" in metrics.END_TO_END_NAMES
    names = [
        *metrics.WORKLOAD_NAMES, *metrics.END_TO_END_NAMES, *metrics.PER_LAYER_NAMES
    ]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.match(name), name
    for entry in doc["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    assert set(metrics.PER_LAYER_BOUNDS) <= set(metrics.PER_LAYER_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_metrics_equal_the_declared_lists(trace):
    report = harness.run(
        "fabric_churn", seed=3, seconds=1.0, trace=bool(trace), scale=0.1
    )
    result = report["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = metrics.PER_LAYER_NAMES if trace else metrics.END_TO_END_NAMES
    assert tuple(result["metrics"]) == expected
    for name, entry in result["metrics"].items():
        assert entry["unit"] == metrics.UNITS[name]
        assert isinstance(entry["value"], float)
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_same_seed_same_digest_other_seed_other_digest():
    runs = [
        harness.run("stream_idle", seed=seed, seconds=1.0, trace=False, scale=0.1)
        for seed in (5, 5, 6)
    ]
    assert runs[0]["sim_digest"] == runs[1]["sim_digest"] != runs[2]["sim_digest"]


def test_planted_wrong_result_hash_fails_the_command(monkeypatch, capsys):
    real = workloads.result_hash
    calls = itertools.count()

    def planted(action_result):
        # One scheme's answer "differs" from the other five.
        return "planted" if next(calls) == 2 else real(action_result)

    monkeypatch.setattr(workloads, "result_hash", planted)
    code = harness.main([
        "--workload", "paper_matrix", "--seed", "0", "--seconds", "1",
        "--scale", "0.1",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out.strip().splitlines()[-1])["correct"] is False
    assert "action-result hash differs" in captured.err


def test_planted_digest_mismatch_fails_the_command(monkeypatch, capsys):
    # The profiled replay of round 0 must simulate what the bare
    # baseline round did; a digest that moves between them is an error.
    calls = itertools.count()
    monkeypatch.setattr(workloads, "digest_of", lambda _parts: f"d{next(calls)}")
    code = harness.main([
        "--workload", "stream_idle", "--seed", "0", "--seconds", "1",
        "--scale", "0.1", "--trace", "1",
    ])
    assert code == 1
    assert "profiling perturbed the simulation" in capsys.readouterr().err


def _report(trace, hashseed, digests):
    return {
        "trace": trace,
        "rounds": len(digests),
        "round_digests": digests,
        "sim_digest": harness.run_digest(digests),
        "errors": [],
        "exit_code": 0,
        "env": {"hashseed": str(hashseed), "noisy": False},
        "result": {
            "attempted": 1,
            "failed": 0,
            "metrics": {
                name: {"value": 1.0, "unit": metrics.UNITS[name]}
                for name in (
                    metrics.PER_LAYER_NAMES if trace else metrics.END_TO_END_NAMES
                )
            },
        },
    }


def test_aggregate_flags_digest_mismatches():
    clean = aggregate.aggregate_workload(
        [_report(0, 0, ["a", "b"]), _report(0, 1, ["a", "b"])],
        _report(1, 0, ["a"]),
    )
    assert clean["errors"] == [] and clean["determinism"]["hashseed_stable"]
    traced_moved = aggregate.aggregate_workload(
        [_report(0, 0, ["a", "b"])], _report(1, 0, ["x"])
    )
    assert any("profiling perturbed" in e for e in traced_moved["errors"])
    # A mismatch across hash seeds alone is reported, not failed.
    hash_order = aggregate.aggregate_workload(
        [_report(0, 0, ["a", "b"]), _report(0, 1, ["a", "c"])],
        _report(1, 0, ["a"]),
    )
    assert hash_order["errors"] == []
    assert hash_order["determinism"]["hashseed_stable"] is False
    same_seed = aggregate.aggregate_workload(
        [_report(0, 0, ["a", "b"]), _report(0, 0, ["a", "c"])],
        _report(1, 0, ["a"]),
    )
    assert any("equal PYTHONHASHSEED" in e for e in same_seed["errors"])


def test_import_graph_touches_no_test_or_legacy_bench_module():
    probe = (
        "import sys\n"
        "import benchmarks.e2e.harness, benchmarks.e2e.compare\n"
        "import benchmarks.e2e.__main__\n"
        "bad = [m for m in sys.modules if m == 'tests' or m.startswith('tests.')"
        " or m == 'benchmarks.matrix_cache' or m.startswith('benchmarks.bench_')"
        " or m == 'repro.experiments.iridium']\n"
        "print(bad)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "[]"
