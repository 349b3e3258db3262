"""Parallel experiment harness: identical output to the sequential path.

Every (workload, scheme, seed) cell is an independent, seeded,
deterministic simulation, so fanning the matrix out over a process pool
must change *nothing* about the results — same ordering, same float
values, same derived figure statistics.  ``solver_seconds`` inside the
fabric perf counters is wall-clock time and is excluded from the
comparison; every other counter is deterministic and compared exactly.
"""

import dataclasses

import pytest

from repro.experiments.figures import fig7_job_completion_times
from repro.config import SimulationConfig
from repro.experiments.runner import ExperimentPlan, clear_data_cache, run_matrix
from repro.experiments.schemes import Scheme
from repro.failures.chaos import ChaosEvent, ChaosSchedule
from repro.workloads import workload_by_name


@pytest.fixture(autouse=True)
def _clean():
    clear_data_cache()
    yield
    clear_data_cache()


def _small_matrix(jobs):
    plan = ExperimentPlan(seeds=(0, 1))
    workloads = [workload_by_name("wordcount")]
    schemes = [Scheme.SPARK, Scheme.AGGSHUFFLE]
    return run_matrix(workloads, schemes, plan, jobs=jobs)


def _comparable(result):
    """RunResult as a dict minus the wall-clock perf field."""
    data = dataclasses.asdict(result)
    data["fabric_perf"] = {
        key: value
        for key, value in data["fabric_perf"].items()
        if key != "solver_seconds"
    }
    return data


def test_parallel_matrix_is_identical_to_sequential():
    sequential = _small_matrix(jobs=1)
    clear_data_cache()
    parallel = _small_matrix(jobs=2)
    assert len(sequential) == len(parallel)
    for seq, par in zip(sequential, parallel):
        assert _comparable(seq) == _comparable(par)
    # The derived figure statistics are byte-identical.
    assert repr(fig7_job_completion_times(sequential)) == repr(
        fig7_job_completion_times(parallel)
    )


def test_jobs_of_one_falls_back_to_sequential_runner():
    results = _small_matrix(jobs=1)
    assert len(results) == 4
    assert [r.scheme for r in results] == [
        Scheme.SPARK,
        Scheme.SPARK,
        Scheme.AGGSHUFFLE,
        Scheme.AGGSHUFFLE,
    ]
    assert [r.seed for r in results] == [0, 1, 0, 1]


def test_parallel_results_preserve_matrix_order():
    parallel = _small_matrix(jobs=2)
    assert [(r.workload, r.scheme, r.seed) for r in parallel] == [
        ("WordCount", Scheme.SPARK, 0),
        ("WordCount", Scheme.SPARK, 1),
        ("WordCount", Scheme.AGGSHUFFLE, 0),
        ("WordCount", Scheme.AGGSHUFFLE, 1),
    ]


def test_chaos_cells_identical_in_the_pool():
    """A chaos schedule rides in the plan's base config, and its cells
    come out of the per-cell pool exactly as they run sequentially."""
    degrade = ChaosSchedule(
        (
            ChaosEvent(
                at=1.0,
                kind="degrade",
                target="us-east-1->us-west-1",
                factor=0.5,
                duration=0.0,
            ),
        )
    )
    plan = ExperimentPlan(
        seeds=(0, 1), base_config=SimulationConfig().with_chaos(degrade)
    )
    workloads = [workload_by_name("wordcount")]
    sequential = run_matrix(workloads, [Scheme.SPARK], plan, jobs=1)
    clear_data_cache()
    pooled = run_matrix(workloads, [Scheme.SPARK], plan, jobs=2)
    assert len(sequential) == len(pooled) == 2
    for seq, par in zip(sequential, pooled):
        assert _comparable(seq) == _comparable(par)
    # The degrade event actually fired in every cell.
    assert [r.chaos_events_applied for r in sequential] == [1, 1]
