"""MetricsCollector: job/stage/task span bookkeeping."""

from repro.metrics.collectors import MetricsCollector
from repro.scheduler.task import TaskResult


class _FakeKind:
    def __init__(self, value):
        self.value = value


class _FakeStage:
    def __init__(self, stage_id, name="stage", kind="result"):
        self.stage_id = stage_id
        self.name = name
        self.kind = _FakeKind(kind)


class _FakeTask:
    def __init__(self, stage, task_id="t0", partition=0):
        self.stage = stage
        self.task_id = task_id
        self.partition = partition


def test_job_span_recorded():
    collector = MetricsCollector()
    collector.on_job_start(10.0)
    collector.on_job_end(25.0)
    assert collector.job.duration == 15.0


def test_stage_and_task_spans():
    collector = MetricsCollector()
    stage = _FakeStage(1, "map-stage", "shuffle_map")
    collector.on_stage_start(stage, 1.0)
    task = _FakeTask(stage, "t7", partition=3)
    collector.on_task_end(
        TaskResult(
            task=task, host="h0", started_at=1.0, finished_at=4.0,
            attempts=1, shuffle_bytes_fetched=100.0, output_bytes=50.0,
        )
    )
    collector.on_stage_end(stage, 5.0)
    span = collector.job.stages[0]
    assert span.duration == 4.0
    assert span.kind == "shuffle_map"
    assert span.tasks[0].finished_at - span.tasks[0].started_at == 3.0
    assert span.tasks[0].partition == 3
    assert span.tasks[0].shuffle_bytes_fetched == 100.0


def test_task_for_unknown_stage_ignored():
    collector = MetricsCollector()
    stage = _FakeStage(9)
    collector.on_task_end(
        TaskResult(
            task=_FakeTask(stage), host="h", started_at=0, finished_at=1,
            attempts=1,
        )
    )
    assert collector.job.stages == []


def test_failed_attempts_counted():
    collector = MetricsCollector()
    stage = _FakeStage(1)
    collector.on_task_attempt_failed(_FakeTask(stage), "h0", 2.0)
    collector.on_task_attempt_failed(_FakeTask(stage), "h1", 3.0)
    assert collector.job.injected_failures == 2


def test_real_job_produces_consistent_metrics(fetch_context):
    fetch_context.write_input_file("/in", [[("a", 1)], [("b", 2)]])
    fetch_context.text_file("/in").reduce_by_key(lambda a, b: a + b).collect()
    job = fetch_context.metrics.job
    assert job.duration > 0
    for span in job.stages:
        assert span.finished_at >= span.submitted_at
        for task in span.tasks:
            assert task.finished_at >= task.started_at
            assert task.attempts == 1
