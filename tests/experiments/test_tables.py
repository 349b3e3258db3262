"""The table list (``benchmarks/tables.py``): the paper tables and
``repro fig7|fig8|headline`` render through one code path, the checked-in
tables are stamped and fresh, and ``--check`` fails on an unstamped or
back-dated table."""

import contextlib
import io
import json

import pytest

from benchmarks import tables
from repro.cli import main as cli_main
from repro.experiments import runner
from repro.experiments.runner import ExperimentPlan, run_matrix
from repro.experiments.schemes import PAPER_SCHEMES
from repro.workloads import workload_by_name


@pytest.fixture(scope="module")
def small_matrix():
    workloads = [workload_by_name("sort"), workload_by_name("pagerank")]
    return run_matrix(
        workloads, list(PAPER_SCHEMES), ExperimentPlan(seeds=(0, 1)), jobs=1
    )


@pytest.mark.parametrize(
    "command, table",
    [("fig7", "fig7_jct"), ("fig8", "fig8_traffic"), ("headline", "headline")],
)
def test_cli_prints_the_rows_of_the_tracked_table(
    command, table, small_matrix, monkeypatch
):
    monkeypatch.setattr(tables, "paper_matrix", lambda _seeds: small_matrix)
    entry = tables.TABLES[table]
    rows = entry.render(entry.build(2))
    monkeypatch.setattr(runner, "run_matrix", lambda *_a, **_k: small_matrix)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main([command, "--seeds", "2"]) == 0
    assert out.getvalue().splitlines() == rows
    assert [row.split()[0] for row in rows[2:]] == ["Sort", "PageRank"]


def _entry(commit, digest, python="3.11.7"):
    return {
        "commit": commit,
        "python": python,
        "workloads": {"w": {"sim_digest": digest, "smoke_sim_digest": "s" + digest}},
    }


def test_a_stamp_before_the_newest_moved_entry_is_stale():
    entries = [
        _entry("a0", "d1"),
        _entry("b0", "d2"),  # moved: the newest entry whose digests moved
        _entry("c0", "d1", python="3.12.1"),  # first on its minor: not a move
        _entry("d0", "d2"),
    ]
    assert tables.newest_moved(entries) == 1
    assert "stale" in tables.stamp_problem({"trajectory": "a0"}, entries)
    assert tables.stamp_problem({"trajectory": "b0"}, entries) is None
    assert tables.stamp_problem({"trajectory": "d0"}, entries) is None
    assert tables.stamp_problem(None, entries) == "no stamp"
    assert "not in the trajectory" in tables.stamp_problem(
        {"trajectory": "zz"}, entries
    )
    # A move on another minor version counts too, in trajectory order.
    entries.append(_entry("e0", "d3", python="3.12.4"))
    assert tables.newest_moved(entries) == 4
    assert "stale" in tables.stamp_problem({"trajectory": "d0"}, entries)
    assert tables.newest_moved(entries[:1]) is None


def test_checked_in_tables_are_stamped_and_fresh():
    entries = json.loads(tables.TRAJECTORY.read_text())
    for table in tables.TABLES.values():
        for name in table.outputs:
            stamp = tables.read_stamp(tables.RESULTS_DIR / name)
            assert tables.stamp_problem(stamp, entries) is None, name
            assert str(stamp["smoke"]).lower() == "false", name
            assert int(stamp[table.unit]) == table.full, name


def test_check_fails_on_an_unstamped_or_back_dated_table(tmp_path, monkeypatch):
    trajectory = tmp_path / "BENCH_e2e.json"
    trajectory.write_text(json.dumps([_entry("a0", "d1"), _entry("b0", "d1")]))
    monkeypatch.setattr(tables, "TRAJECTORY", trajectory)
    monkeypatch.setattr(tables, "RESULTS_DIR", tmp_path)
    tracked = tmp_path / "fig1_pipelining.txt"

    assert tables.main(["--check", "fig1_pipelining"]) == 1  # no table yet
    assert tables.main(["fig1_pipelining"]) == 0  # full run, stamped b0
    assert tables.read_stamp(tracked)["trajectory"] == "b0"
    assert tables.main(["--check", "fig1_pipelining"]) == 0

    tracked.write_text("\n".join(tracked.read_text().splitlines()[1:]) + "\n")
    assert tables.main(["--check", "fig1_pipelining"]) == 1  # unstamped
    assert tables.main(["fig1_pipelining"]) == 0
    trajectory.write_text(json.dumps(
        [_entry("a0", "d1"), _entry("b0", "d1"), _entry("c0", "d2")]
    ))
    assert tables.main(["--check", "fig1_pipelining"]) == 1  # back-dated
    with pytest.raises(SystemExit):
        tables.main(["no_such_table"])
