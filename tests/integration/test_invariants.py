"""Cross-cutting invariants of the whole engine, property-tested.

Rather than checking one scenario, these tests assert conservation and
determinism laws that must hold for *any* job the engine runs.
"""


import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import make_context


pair_partitions = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from("abcdefgh"),
            st.integers(-50, 50),
        ),
        max_size=8,
    ),
    min_size=1,
    max_size=5,
)


@given(pair_partitions, st.booleans())
@settings(max_examples=25, deadline=None)
def test_reduce_by_key_total_is_conserved(partitions, push):
    """Sum of all values is invariant under any shuffle mechanism."""
    context = make_context(push=push)
    context.write_input_file("/in", partitions)
    result = (
        context.text_file("/in").reduce_by_key(lambda a, b: a + b).collect()
    )
    expected_total = sum(v for part in partitions for _k, v in part)
    assert sum(v for _k, v in result) == expected_total
    context.shutdown()


@given(pair_partitions)
@settings(max_examples=15, deadline=None)
def test_fetch_and_push_agree(partitions):
    """Both shuffle mechanisms compute identical results."""
    outcomes = []
    for push in (False, True):
        context = make_context(push=push)
        context.write_input_file("/in", partitions)
        outcomes.append(
            sorted(
                context.text_file("/in")
                .reduce_by_key(lambda a, b: a + b)
                .collect()
            )
        )
        context.shutdown()
    assert outcomes[0] == outcomes[1]


@given(st.integers(0, 1000))
@settings(max_examples=10, deadline=None)
def test_simulation_is_deterministic_per_seed(seed):
    """Same seed -> byte-identical durations and traffic."""
    def run():
        context = make_context(push=True, seed=seed)
        context.write_input_file(
            "/in", [[("k", i) for i in range(5)]] * 3
        )
        context.text_file("/in").group_by_key().collect()
        outcome = (
            context.metrics.job.duration,
            context.traffic.total_bytes,
            context.traffic.cross_dc_bytes,
        )
        context.shutdown()
        return outcome

    assert run() == run()


def test_clock_never_goes_backwards():
    context = make_context(push=True)
    context.write_input_file("/in", [[("a", 1)], [("b", 2)]])
    rdd = context.text_file("/in").reduce_by_key(lambda a, b: a + b)
    rdd.collect()
    events = []
    for span in context.metrics.job.stages:
        events.append(span.submitted_at)
        events.append(span.finished_at)
        for task in span.tasks:
            assert span.submitted_at <= task.started_at
            assert task.finished_at <= span.finished_at + 1e-9
    assert all(t >= 0 for t in events)
    context.shutdown()


def test_traffic_is_conserved_across_monitor_views():
    context = make_context(push=True)
    context.write_input_file("/in", [[("a", "x" * 100)], [("b", "y" * 100)]])
    context.text_file("/in").reduce_by_key(lambda a, b: a + b).collect()
    monitor = context.traffic
    by_pair_total = sum(monitor.by_pair.values())
    assert by_pair_total == pytest.approx(monitor.total_bytes)
    cross = sum(
        size for (src, dst), size in monitor.by_pair.items() if src != dst
    )
    assert cross == pytest.approx(monitor.cross_dc_bytes)
    context.shutdown()


def test_executor_slots_fully_released_after_job():
    context = make_context(push=True)
    context.write_input_file("/in", [[("a", 1)]] * 4)
    context.text_file("/in").reduce_by_key(lambda a, b: a + b).collect()
    for executor in context.executors.values():
        assert executor.busy == 0
    for executor in context.transfer_executors.values():
        assert executor.busy == 0
    assert not context.task_scheduler._pending
    context.shutdown()


def test_no_pending_flows_after_job():
    context = make_context(push=False)
    context.write_input_file("/in", [[("a", 1)], [("b", 2)]])
    context.text_file("/in").reduce_by_key(lambda a, b: a + b).collect()
    assert context.fabric.active_flow_count == 0
    context.shutdown()
