"""A smoke run never overwrites a tracked benchmark table."""

import json

from benchmarks import matrix_cache


def test_smoke_reports_land_in_the_ignored_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(matrix_cache, "RESULTS_DIR", tmp_path)
    monkeypatch.delenv("REPRO_SMOKE", raising=False)
    assert matrix_cache.write_report("table.txt", ["full"]) == tmp_path / "table.txt"

    monkeypatch.setenv("REPRO_SMOKE", "1")  # what ``--smoke`` sets
    assert matrix_cache.write_report("table.txt", ["cut down"]) == (
        tmp_path / "smoke" / "table.txt"
    )
    assert matrix_cache.emit_json("BENCH.json", {"b": 1}) == (
        tmp_path / "smoke" / "BENCH.json"
    )
    assert (tmp_path / "table.txt").read_text() == "full\n"
    assert json.loads((tmp_path / "smoke" / "BENCH.json").read_text()) == {"b": 1}

    monkeypatch.setenv("REPRO_SMOKE", "0")
    assert matrix_cache.results_dir() == tmp_path
