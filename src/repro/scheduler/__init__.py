"""DAG and task scheduling: turning lineage into placed, timed tasks.

* :mod:`repro.scheduler.stage` — stage decomposition of a lineage graph
  at shuffle *and transfer* boundaries (the latter is the paper's
  addition: receiver tasks live in their own pipelined stage).
* :mod:`repro.scheduler.task` — task descriptions and results.
* :mod:`repro.scheduler.task_scheduler` — delay-scheduling placement
  honouring ``preferred_locations`` with host -> datacenter -> anywhere
  fallback, over slot-based executors.
* :mod:`repro.scheduler.task_runtime` — the in-task execution engine:
  materialises RDD partitions, charges CPU/disk/network time, performs
  shuffle reads and transfer pulls.
* :mod:`repro.scheduler.dag_scheduler` — drives a job: submits stages in
  dependency order, pipelines receiver tasks with their producers,
  resolves aggregator datacenters, collects results.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.scheduler.stage": ("Stage", "StageKind", "build_stages"),
    "repro.scheduler.task": ("Task", "TaskResult"),
    "repro.scheduler.task_scheduler": ("Executor", "TaskScheduler"),
    "repro.scheduler.dag_scheduler": ("DAGScheduler",),
})
