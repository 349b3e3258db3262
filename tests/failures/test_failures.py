"""Failure injection and stragglers, plus the Fig. 2 recovery contrast."""

import dataclasses

import pytest

from repro.config import FailureConfig, SimulationConfig
from repro.experiments.runner import ExperimentPlan, run_workload_once
from repro.experiments.schemes import Scheme
from repro.failures import FailureInjector
from repro.simulation import RandomSource
from repro.workloads import SORT, TERASORT, Sort, TeraSort
from tests.conftest import make_context, quiet_config, small_spec
from repro.cluster.context import ClusterContext


class _FakeStage:
    job = 0
    stage_id = 1


class _FakeTask:
    def __init__(self, partition=0, attempts=1):
        self.stage = _FakeStage()
        self.partition = partition
        self.attempts = attempts


def test_failure_config_validates_at_construction():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        FailureConfig(reducer_failure_probability=1.5)
    with pytest.raises(ConfigurationError):
        FailureConfig(reducer_failure_probability=-0.1)
    with pytest.raises(ConfigurationError):
        FailureConfig(max_injected_failures_per_task=-1)
    # Boundary values are legal.
    FailureConfig(reducer_failure_probability=1.0, max_injected_failures_per_task=0)


def test_zero_probability_never_fails():
    injector = FailureInjector(FailureConfig(), RandomSource(0))
    assert not any(injector.should_fail(_FakeTask()) for _ in range(100))


def test_certain_probability_fails_up_to_cap():
    config = FailureConfig(
        reducer_failure_probability=1.0, max_injected_failures_per_task=2
    )
    injector = FailureInjector(config, RandomSource(0))
    task = _FakeTask()
    assert injector.should_fail(task)
    assert injector.should_fail(task)
    assert not injector.should_fail(task)  # capped
    assert injector.total_injected == 2


def test_failures_are_deterministic_per_seed():
    config = FailureConfig(reducer_failure_probability=0.5)
    def draws(seed):
        injector = FailureInjector(config, RandomSource(seed))
        return [injector.should_fail(_FakeTask(i)) for i in range(50)]
    assert draws(1) == draws(1)
    assert draws(1) != draws(2)


def test_a_faulted_cell_repeats_in_one_process():
    """Failure draws are named after (job, stage, partition, attempt), not
    after process-wide task ids: the same faulted cell gives the same
    result however many tasks the process built before it."""
    plan = ExperimentPlan(
        base_config=SimulationConfig(
            failures=FailureConfig(reducer_failure_probability=0.3)
        )
    )
    sort = Sort(spec=SORT)
    run_workload_once(TeraSort(spec=TERASORT), Scheme.AGGSHUFFLE, 1, plan)
    runs = [run_workload_once(sort, Scheme.SPARK, 3, plan) for _ in range(3)]
    assert runs[0].injected_failures_total > 0
    assert len({(run.duration, run.cross_dc_megabytes) for run in runs}) == 1


def test_straggler_off_by_default_in_injector():
    injector = FailureInjector(FailureConfig(), RandomSource(0))
    assert injector.straggler_slowdown(_FakeTask()) == 1.0


def _run_wordcount_with_failures(push: bool):
    """Run a small shuffle job with guaranteed reducer failures."""
    failures = FailureConfig(
        reducer_failure_probability=1.0, max_injected_failures_per_task=1
    )
    config = dataclasses.replace(quiet_config(push=push), failures=failures)
    context = ClusterContext(small_spec(), config)
    context.write_input_file(
        "/in", [[("a", 1), ("b", 2)], [("a", 3)], [("c", 4)], [("b", 5)]]
    )
    result = dict(
        context.text_file("/in").reduce_by_key(lambda a, b: a + b).collect()
    )
    assert result == {"a": 4, "b": 7, "c": 4}
    job = context.metrics.job
    traffic = context.traffic
    context.shutdown()
    return job, traffic


def test_injected_failures_are_counted_and_recovered():
    job, _traffic = _run_wordcount_with_failures(push=False)
    assert job.injected_failures > 0


def test_fetch_failures_refetch_across_datacenters():
    """Fig. 2 (a): retries re-fetch shuffle input over the WAN."""
    job_fail, traffic_fail = _run_wordcount_with_failures(push=False)

    # Reference run without failures, same seed/data.
    context = make_context(push=False)
    context.write_input_file(
        "/in", [[("a", 1), ("b", 2)], [("a", 3)], [("c", 4)], [("b", 5)]]
    )
    context.text_file("/in").reduce_by_key(lambda a, b: a + b).collect()
    clean_shuffle = context.traffic.cross_dc_by_tag.get("shuffle", 0.0)
    context.shutdown()

    failed_shuffle = traffic_fail.cross_dc_by_tag.get("shuffle", 0.0)
    assert failed_shuffle > clean_shuffle


def test_push_failures_recover_locally():
    """Fig. 2 (b): with aggregated input the retry adds no WAN traffic."""
    _job, traffic = _run_wordcount_with_failures(push=True)
    assert traffic.cross_dc_by_tag.get("shuffle", 0.0) == 0.0
