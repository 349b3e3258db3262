"""Speculative execution: duplicate stragglers, first finisher wins."""

import dataclasses

from repro.cluster.context import ClusterContext
from repro.config import SchedulingConfig
from tests.conftest import quiet_config, small_spec


class OneSlowTask:
    """Straggler model: exactly the first attempt drawn becomes slow."""

    def __init__(self, factor: float = 8.0) -> None:
        self.factor = factor
        self._victim = None

    def slowdown(self, _randomness, task_key: str, attempt: int) -> float:
        # The draws are named after (job, stage, partition, attempt), which
        # a speculative copy shares with the attempt it duplicates: only
        # the first draw is slow.
        if self._victim is None:
            self._victim = (task_key, attempt)
            return self.factor
        return 1.0


def build_context(speculation: bool, straggler=None, spec_kwargs=None):
    scheduling = SchedulingConfig(
        speculation=speculation,
        speculation_multiplier=1.5,
        speculation_quantile=0.5,
        speculation_interval=1.0,
    )
    config = dataclasses.replace(quiet_config(), scheduling=scheduling)
    return ClusterContext(
        small_spec(**(spec_kwargs or {})),
        config,
        straggler_model=straggler,
    )


def big_partitions(count=8):
    from repro.rdd.size_estimator import SizedRecord

    return [[SizedRecord(f"p{i}", natural_size=2e8)] for i in range(count)]


def test_speculation_rescues_straggling_stage():
    # count() keeps the job CPU-bound so the straggler dominates.
    slow = build_context(speculation=False, straggler=OneSlowTask())
    slow.write_input_file("/in", big_partitions())
    slow.text_file("/in").map(lambda r: r).count()
    without = slow.metrics.job.duration
    slow.shutdown()

    fast = build_context(speculation=True, straggler=OneSlowTask())
    fast.write_input_file("/in", big_partitions())
    fast.text_file("/in").map(lambda r: r).count()
    with_speculation = fast.metrics.job.duration
    fast.shutdown()

    assert with_speculation < without * 0.75


def test_speculation_preserves_results():
    context = build_context(speculation=True, straggler=OneSlowTask())
    context.write_input_file(
        "/in", [[("k", i)] for i in range(8)]
    )
    result = dict(
        context.text_file("/in").reduce_by_key(lambda a, b: a + b).collect()
    )
    assert result == {"k": sum(range(8))}
    context.shutdown()


def test_no_speculation_without_stragglers():
    """Healthy stages launch no duplicates (task count stays exact)."""
    context = build_context(speculation=True)
    context.write_input_file("/in", [[i] for i in range(4)])
    context.text_file("/in").map(lambda r: r).collect()
    total_tasks = sum(
        len(span.tasks) for span in context.metrics.job.stages
    )
    assert total_tasks == 4
    context.shutdown()


def test_speculation_records_duplicate_attempts():
    context = build_context(speculation=True, straggler=OneSlowTask(12.0))
    context.write_input_file("/in", big_partitions())
    context.text_file("/in").map(lambda r: r).count()
    # The job ends when the duplicate wins; drain the simulator so the
    # losing original also finishes and is recorded.
    context.sim.run()
    total_tasks = sum(
        len(span.tasks) for span in context.metrics.job.stages
    )
    assert total_tasks > 8  # the duplicate and the loser both completed
    context.shutdown()


def test_speculation_off_by_default():
    assert SchedulingConfig().speculation is False
