"""Concurrent jobs sharing one cluster (§IV-E)."""

import pytest


def wait_all(context, handles):
    """Run the simulation until every handle's job has finished; their
    results, in order."""
    for handle in handles:
        context.sim.run_until_event(handle.process)
    return [handle.process.value for handle in handles]


def test_two_jobs_complete_with_correct_results(push_context):
    context = push_context
    context.write_input_file("/a", [[("x", 1)], [("x", 2)]])
    context.write_input_file("/b", [[("y", 10)], [("y", 20)]])
    job_a = context.submit_job(
        context.text_file("/a").reduce_by_key(lambda a, b: a + b)
    )
    job_b = context.submit_job(
        context.text_file("/b").reduce_by_key(lambda a, b: a + b)
    )
    results = wait_all(context, [job_a, job_b])
    assert dict(results[0]) == {"x": 3}
    assert dict(results[1]) == {"y": 30}
    assert job_a.process.triggered and job_b.process.triggered


def test_concurrent_jobs_interleave_in_time(fetch_context):
    """Running two jobs together must not serialise them fully."""
    context = fetch_context
    parts = [[("k", i) for i in range(5)] for _ in range(4)]
    context.write_input_file("/a", parts)
    context.write_input_file("/b", parts)

    # Sequential reference.
    start = context.sim.now
    context.text_file("/a").reduce_by_key(lambda a, b: a + b).collect()
    context.text_file("/b").reduce_by_key(lambda a, b: a + b).collect()
    sequential = context.sim.now - start

    context.write_input_file("/c", parts)
    context.write_input_file("/d", parts)
    start = context.sim.now
    handles = [
        context.submit_job(
            context.text_file(path).reduce_by_key(lambda a, b: a + b)
        )
        for path in ("/c", "/d")
    ]
    wait_all(context, handles)
    concurrent = context.sim.now - start
    assert concurrent < sequential * 0.95


def test_each_job_gets_its_own_metrics(fetch_context):
    context = fetch_context
    context.write_input_file("/a", [[1], [2]])
    context.write_input_file("/b", [[3]])
    job_a = context.submit_job(context.text_file("/a"))
    job_b = context.submit_job(context.text_file("/b"))
    wait_all(context, [job_a, job_b])
    assert len(job_a.metrics.job.stages) == 1
    assert len(job_b.metrics.job.stages) == 1
    tasks_a = sum(len(s.tasks) for s in job_a.metrics.job.stages)
    tasks_b = sum(len(s.tasks) for s in job_b.metrics.job.stages)
    assert tasks_a == 2
    assert tasks_b == 1
    assert job_a.metrics.job.duration > 0


def test_failing_concurrent_job_does_not_poison_the_other(fetch_context):
    context = fetch_context
    context.write_input_file("/good", [[1, 2]])
    context.write_input_file("/bad", [[3]])

    def explode(_record):
        raise RuntimeError("bad job")

    good = context.submit_job(context.text_file("/good"))
    bad = context.submit_job(context.text_file("/bad").map(explode))
    assert wait_all(context, [good]) == [[1, 2]]
    with pytest.raises(RuntimeError):
        wait_all(context, [bad])
