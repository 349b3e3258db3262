"""A smoke run never overwrites a tracked benchmark table, and every table
and JSON artifact the list writes carries its stamp."""

import dataclasses
import json

from benchmarks import tables


def test_smoke_reports_land_in_the_ignored_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(tables, "RESULTS_DIR", tmp_path)
    table = dataclasses.replace(
        tables.TABLES["fig1_pipelining"],
        artifact=("BENCH.json", lambda _data: {"b": 1}),
    )
    base = {"commit": "abc", "trajectory": "def"}

    assert tables.run_table(table, True, base) == []
    assert not (tmp_path / "fig1_pipelining.txt").exists()
    smoke = tmp_path / "smoke" / "fig1_pipelining.txt"
    first, title = smoke.read_text().splitlines()[:2]
    assert first == "# stamp commit=abc trajectory=def runs=1 smoke=true"
    assert title.startswith("Fig. 1")
    assert tables.read_stamp(smoke) == {
        "commit": "abc", "trajectory": "def", "runs": "1", "smoke": "true",
    }
    assert json.loads((tmp_path / "smoke" / "BENCH.json").read_text()) == {
        "b": 1,
        "stamp": {"commit": "abc", "trajectory": "def", "runs": 1, "smoke": True},
    }

    assert tables.run_table(table, False, base) == []
    tracked = (tmp_path / "fig1_pipelining.txt").read_text().splitlines()
    assert tracked[0] == "# stamp commit=abc trajectory=def runs=1 smoke=false"
    assert tracked[1:] == smoke.read_text().splitlines()[1:]
    assert tables.read_stamp(tmp_path / "BENCH.json")["smoke"] is False


def test_a_failing_check_is_reported_not_raised(tmp_path, monkeypatch):
    monkeypatch.setattr(tables, "RESULTS_DIR", tmp_path)

    def check(_data):
        raise AssertionError("planted")

    table = dataclasses.replace(tables.TABLES["fig2_failure"], checks=check)
    assert tables.run_table(table, True, {"commit": "c", "trajectory": "t"}) == [
        "fig2_failure: check failed: planted"
    ]
    # The table is written before its checks run, for inspection.
    assert (tmp_path / "smoke" / "fig2_failure.txt").exists()
