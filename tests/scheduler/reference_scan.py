"""The pending x free-hosts scan the indexed dispatcher replaced.

Kept verbatim (dispatch and eligibility; wake planning rescans all
pending tasks as it did) as the reference oracle for
``test_dispatch_index.py``: the indexed
:class:`~repro.scheduler.task_scheduler.TaskScheduler` must launch the
same tasks on the same hosts at the same instants.  Not a second
dispatcher — nothing under ``src/`` imports it.

One thing is not as it was: the wake-up aims at the first instant
``_eligibility`` opens a tier (``_tier_instant``) where it used to aim at
``submitted + wait``, which could be one ulp early and stall the task.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Tuple

from repro.config import SchedulingConfig
from repro.errors import NoEligibleExecutorError, SchedulerError
from repro.network.topology import Topology
from repro.scheduler.job_scheduler import JobStreamScheduler, _Queued
from repro.scheduler.task import Task
from repro.scheduler.task_scheduler import Executor, TaskBody
from repro.simulation.event import Event
from repro.simulation.kernel import Simulator

_HOST_LOCAL = 0
_DC_LOCAL = 1
_ANY = 2


def _tier_instant(submitted: float, wait: float) -> float:
    """The first clock value at which ``now - submitted >= wait`` holds."""
    if wait <= 0:
        return submitted
    instant = submitted + wait
    while instant - submitted < wait:
        instant = math.nextafter(instant, math.inf)
    while math.nextafter(instant, -math.inf) - submitted >= wait:
        instant = math.nextafter(instant, -math.inf)
    return instant


class _PendingEntry:
    __slots__ = ("task", "completion", "sequence")

    def __init__(self, task: Task, completion: Event, sequence: int) -> None:
        self.task = task
        self.completion = completion
        self.sequence = sequence


class _RunningRecord:
    """One launched attempt: enough state to relaunch it on executor loss."""

    __slots__ = ("entry", "host", "process", "lost")

    def __init__(self, entry: _PendingEntry, host: str) -> None:
        self.entry = entry
        self.host = host
        self.process = None
        self.lost = False


class ScanTaskScheduler:
    """The pre-index dispatcher: every pending task x every free host."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        executors: Dict[str, Executor],
        config: SchedulingConfig,
        run_task: TaskBody,
        blacklist=None,
    ) -> None:
        if not executors:
            raise NoEligibleExecutorError("no executors registered")
        self.sim = sim
        self.topology = topology
        self.executors = executors
        self.config = config
        self.run_task = run_task
        # Optional BlacklistTracker consulted at placement (excludeOn-
        # Failure); None or a disabled tracker leaves dispatch untouched.
        self.blacklist = blacklist
        self._pending: List[_PendingEntry] = []
        # Launched-but-unfinished attempts, in launch order (a list, not
        # a set: executor removal iterates it and must be deterministic).
        self._running: List[_RunningRecord] = []
        self._sequence = itertools.count()
        self._wake_planned_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, task: Task) -> Event:
        """Queue a task; returns an event firing with its TaskResult."""
        task.submit_time = self.sim.now
        completion = self.sim.event(name=f"{task.task_id}:done")
        self._pending.append(
            _PendingEntry(task, completion, next(self._sequence))
        )
        self._dispatch()
        return completion

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def running_count(self) -> int:
        return len(self._running)

    def total_free_slots(self) -> int:
        return sum(executor.free for executor in self.executors.values())

    def remove_executor(self, host: str) -> int:
        """Take one executor out of service (executor crash / host loss).

        Attempts currently running on it are interrupted and silently
        requeued — the waiter's completion event stays pending, exactly
        as Spark's driver relaunches tasks of a lost executor without
        failing the stage.  Returns the number of relaunched attempts.
        Removing the last executor is refused: no slot could ever run
        the relaunched work, so the simulation would deadlock.
        """
        if host not in self.executors:
            return 0
        if len(self.executors) == 1:
            raise SchedulerError(
                f"cannot remove {host!r}: it is the last executor"
            )
        del self.executors[host]
        relaunched = 0
        for record in list(self._running):
            if record.host == host and not record.lost:
                record.lost = True
                relaunched += 1
                record.process.interrupt(f"executor {host} lost")
        # Pending tasks that preferred the dead host re-dispatch on the
        # survivors (their locality waits keep ticking unchanged).
        self._dispatch()
        return relaunched

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Greedily match free slots to eligible pending tasks."""
        while self._pending:
            assignment = self._best_assignment()
            if assignment is None:
                break
            entry, host = assignment
            self._pending.remove(entry)
            self._launch(entry, host)
        self._plan_wakeup()

    def _best_assignment(self) -> Optional[Tuple[_PendingEntry, str]]:
        """The (task, host) pair with the best locality, if any.

        Hosts with more free slots are preferred within a locality level,
        spreading load like Spark standalone's ``spreadOut``.
        """
        free_hosts = [
            executor.host
            for executor in self.executors.values()
            if executor.free > 0
        ]
        if not free_hosts:
            return None
        best: Optional[Tuple[int, int, int, _PendingEntry, str]] = None
        for entry in self._pending:
            vetoed = self._vetoed_hosts(entry.task)
            allowed = self._allowed_hosts(entry.task)
            for host in free_hosts:
                if allowed is not None and host not in allowed:
                    continue
                if vetoed is not None and host in vetoed:
                    self.blacklist.counters.placements_vetoed += 1
                    continue
                level = self._eligibility(entry.task, host)
                if level is None:
                    continue
                # Rank: locality level, then submission order, then spread.
                key = (
                    level,
                    entry.sequence,
                    -self.executors[host].free,
                )
                if best is None or key < best[:3]:
                    best = (*key, entry, host)
        if best is None:
            return None
        return best[3], best[4]

    def _allowed_hosts(self, task: Task) -> Optional[frozenset]:
        """The executor-pool share ``task`` is confined to, or None.

        Anti-starvation override (mirrors the blacklist veto): when no
        allowed host is a live executor — e.g. the share's hosts all
        died — the restriction is ignored so the job keeps making
        progress on the survivors instead of deadlocking.
        """
        allowed = task.allowed_hosts
        if not allowed:
            return None
        if not any(host in self.executors for host in allowed):
            return None
        return allowed

    def _vetoed_hosts(self, task: Task) -> Optional[set]:
        """The hosts the blacklist excludes for ``task``, or None.

        Anti-starvation override: when *every* live executor is
        excluded, the blacklist is ignored for this task — a wedged
        exclusion list must never deadlock the dispatcher.
        """
        blacklist = self.blacklist
        if blacklist is None or not blacklist.enabled:
            return None
        stage = getattr(task, "stage", None)
        stage_id = stage.stage_id if stage is not None else None
        vetoed = {
            host
            for host in self.executors
            if blacklist.is_excluded(host, stage_id)
        }
        if not vetoed or len(vetoed) >= len(self.executors):
            return None
        return vetoed

    def _task_waits(self, task: Task) -> Tuple[float, float]:
        host_wait = (
            task.locality_wait_host
            if task.locality_wait_host is not None
            else self.config.locality_wait_host
        )
        dc_wait = (
            task.locality_wait_datacenter
            if task.locality_wait_datacenter is not None
            else self.config.locality_wait_datacenter
        )
        return host_wait, dc_wait

    def _eligibility(self, task: Task, host: str) -> Optional[int]:
        """The locality level at which ``task`` may run on ``host`` now."""
        if not task.preferred_hosts:
            return _ANY
        if host in task.preferred_hosts:
            return _HOST_LOCAL
        if not any(pref in self.executors for pref in task.preferred_hosts):
            # Every preferred host is dead (e.g. a datacenter outage
            # took the elected aggregator): waiting out the locality
            # tiers cannot help, so run anywhere now and let the read
            # path escalate to re-election instead of stalling.
            return _ANY
        host_wait, dc_wait = self._task_waits(task)
        waited = self.sim.now - task.submit_time
        if waited >= host_wait:
            host_dc = self.topology.datacenter_of(host)
            if host_dc in [
                self.topology.datacenter_of(pref)
                for pref in task.preferred_hosts
            ]:
                return _DC_LOCAL
        if waited >= host_wait + dc_wait:
            return _ANY
        return None

    def _launch(self, entry: _PendingEntry, host: str) -> None:
        executor = self.executors[host]
        executor.busy += 1
        executor.tasks_run += 1
        record = _RunningRecord(entry, host)
        self._running.append(record)
        record.process = self.sim.spawn(
            self._run_wrapper(record),
            name=f"{entry.task.task_id}@{host}",
        )

    def _finish_attempt(self, record: _RunningRecord) -> None:
        self._running.remove(record)
        executor = self.executors.get(record.host)
        if executor is not None:
            executor.busy -= 1

    def _run_wrapper(self, record: _RunningRecord):
        entry = record.entry
        try:
            result = yield from self.run_task(entry.task, record.host)
        except BaseException as error:  # noqa: BLE001 - propagate to waiter
            self._finish_attempt(record)
            if record.lost:
                # The executor died under this attempt: requeue rather
                # than fail, the completion's waiter never notices.
                entry.task.recovery = True
                entry.task.submit_time = self.sim.now
                entry.sequence = next(self._sequence)
                self._pending.append(entry)
                self._dispatch()
                return
            self._dispatch()
            entry.completion.fail(error)
            return
        self._finish_attempt(record)
        self._dispatch()
        entry.completion.succeed(result)

    # ------------------------------------------------------------------
    # Locality-wait wakeups
    # ------------------------------------------------------------------
    def _plan_wakeup(self) -> None:
        """Schedule a re-dispatch when a pending task's wait tier expires."""
        if not self._pending or self.total_free_slots() == 0:
            return
        next_time: Optional[float] = None
        for entry in self._pending:
            submitted = entry.task.submit_time
            if not entry.task.preferred_hosts:
                continue
            wait_host, wait_dc = self._task_waits(entry.task)
            for wait in (wait_host, wait_host + wait_dc):
                if self.sim.now - submitted >= wait:
                    continue  # this tier is open, by _eligibility's own test
                threshold = _tier_instant(submitted, wait)
                if next_time is None or threshold < next_time:
                    next_time = threshold
                break
        # A blacklist expiry can unblock a vetoed placement even though
        # no locality tier is pending.
        if self.blacklist is not None and self.blacklist.enabled:
            expiry = self.blacklist.next_expiry()
            if expiry is not None and expiry > self.sim.now:
                if next_time is None or expiry < next_time:
                    next_time = expiry
        if next_time is None:
            return
        if self._wake_planned_at is not None and (
            self._wake_planned_at <= next_time
            and self._wake_planned_at > self.sim.now
        ):
            return  # an earlier-or-equal wake is already scheduled
        self._wake_planned_at = next_time
        wake = self.sim.timeout(next_time - self.sim.now, name="sched:wake")
        wake.add_callback(lambda _event: self._on_wake())

    def _on_wake(self) -> None:
        self._wake_planned_at = None
        self._dispatch()


# ----------------------------------------------------------------------
# Job admission: the backlog scan JobStreamScheduler's heaps replaced
# ----------------------------------------------------------------------
class ScanJobStreamScheduler(JobStreamScheduler):
    """The old O(backlog) admission, verbatim: one list, a ``min`` over
    it per admission, ``list.remove``.  Reference for
    ``test_job_scheduler.py``: the heaps must admit the same jobs in the
    same order."""

    def __init__(self, context, spec) -> None:
        super().__init__(context, spec)
        self._queue: List[_Queued] = []

    def _select(self) -> _Queued:
        queue = self._queue
        if self.spec.policy == "sjf":
            return min(
                queue,
                key=lambda q: (
                    q.arrival.template.estimated_input_bytes,
                    q.arrival.index,
                ),
            )
        if self.spec.policy == "fair":
            order = {t.name: i for i, t in enumerate(self.spec.tenants)}
            best_tenant = min(
                {q.arrival.tenant for q in queue},
                key=lambda name: (
                    self._service[name] / self._tenants[name].weight,
                    order[name],
                ),
            )
            return min(
                (q for q in queue if q.arrival.tenant == best_tenant),
                key=lambda q: q.arrival.index,
            )
        # fifo and pack: arrival order.
        return min(queue, key=lambda q: q.arrival.index)

    def _on_arrival(self, arrival) -> None:
        now = self.context.sim.now
        self.counters.note_submitted(arrival.tenant, now)
        self._queue.append(_Queued(arrival, now))
        self._pump()

    def _pump(self) -> None:
        while self._queue and self._live < self.spec.max_concurrent:
            queued = self._select()
            self._queue.remove(queued)
            self._admit(queued)
