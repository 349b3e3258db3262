"""Slot-based, locality-aware task scheduling (delay scheduling).

Mirrors the Spark standalone behaviour the paper relies on:

* every worker host is an :class:`Executor` with a fixed number of cores;
* a task prefers specific hosts (``preferred_hosts``); it is placed there
  immediately if a slot is free, falls back to a *same-datacenter* host
  after the scheduler's host wait, and to *any* host after its
  additional datacenter wait (``COMPUTE_WAITS`` for compute slots,
  ``RECEIVER_WAITS`` for the transfer service);
* tasks with no preference run anywhere immediately, and free slots are
  offered most-free-host first, spreading no-preference tasks across the
  cluster — which is precisely how the stock scheduler scatters reducers
  across datacenters when shuffle input is scattered (§II-B), and packs
  them into the aggregator datacenter when it is not (§III-C).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import NoEligibleExecutorError, SchedulerError
from repro.network.topology import Topology
from repro.scheduler.task import Task, TaskResult
from repro.simulation.event import Event
from repro.simulation.kernel import Simulator

# Locality levels, smaller is better.
_HOST_LOCAL = 0
_DC_LOCAL = 1
_ANY = 2

# (host, datacenter) delay-scheduling waits, in seconds: how long a task
# waits for a preferred-host slot before settling for a same-datacenter
# slot, and then for any slot.  Compute tasks use Spark-like waits
# (``spark.locality.wait`` is 3 s by default).  Receiver (transferTo)
# tasks wait 600 s for the aggregator datacenter before falling back to
# any host: effectively they queue there, since pushing elsewhere
# defeats aggregation (§III-C).
COMPUTE_WAITS = (2.0, 45.0)
RECEIVER_WAITS = (0.5, 600.0)

# run_task(task, host) is a generator returning a TaskResult.
TaskBody = Callable[[Task, str], object]


class Executor:
    """A worker host's slots."""

    def __init__(self, host: str, cores: int) -> None:
        if cores < 1:
            raise SchedulerError(f"executor {host}: cores must be >= 1")
        self.host = host
        self.cores = cores
        self.busy = 0
        self.tasks_run = 0

    @property
    def free(self) -> int:
        return self.cores - self.busy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Executor {self.host} {self.busy}/{self.cores}>"


class _PendingEntry:
    """One queued task plus its place in the dispatch index.

    Everything dispatch needs is resolved once, at submit or requeue
    (DESIGN.md "Task dispatch"): ``filed[level]`` holds the bucket keys
    the entry currently sits under at that locality level — its live
    preferred hosts, its preferred datacenters once the host wait has
    passed, ``(None,)`` once it may run anywhere.
    """

    __slots__ = (
        "task",
        "completion",
        "sequence",
        "filed",
        "datacenters",
        "allowed",
    )

    def __init__(self, task: Task, completion: Event) -> None:
        self.task = task
        self.completion = completion
        self.sequence = -1  # assigned by TaskScheduler._enqueue
        self.filed: List[tuple] = [(), (), ()]
        self.datacenters: Tuple[str, ...] = ()
        self.allowed: Optional[frozenset] = None


class _RunningRecord:
    """One launched attempt: enough state to relaunch it on executor loss."""

    __slots__ = ("entry", "host", "process", "lost")

    def __init__(self, entry: _PendingEntry, host: str) -> None:
        self.entry = entry
        self.host = host
        self.process = None
        self.lost = False


def _first_instant(submitted: float, wait: float) -> float:
    """The smallest clock value ``t`` with ``t - submitted >= wait``.

    Float subtraction is monotone in ``t``, so from this instant on the
    eligibility predicate holds; ``submitted + wait`` alone can be one
    ulp to either side of it.
    """
    if wait <= 0:
        return submitted
    instant = submitted + wait
    while instant - submitted >= wait:
        instant = math.nextafter(instant, -math.inf)
    while instant - submitted < wait:
        instant = math.nextafter(instant, math.inf)
    return instant


class TaskScheduler:
    """Places tasks on executors and runs them via a caller-supplied body."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        executors: Dict[str, Executor],
        run_task: TaskBody,
        blacklist=None,
        waits: Tuple[float, float] = COMPUTE_WAITS,
    ) -> None:
        if not executors:
            raise NoEligibleExecutorError("no executors registered")
        self.sim = sim
        self.topology = topology
        self.executors = executors
        # Delay (from submission) after which a preferring task may
        # also run datacenter-local, then anywhere.
        host_wait, datacenter_wait = waits
        self._tier_waits = (
            (_DC_LOCAL, host_wait),
            (_ANY, host_wait + datacenter_wait),
        )
        self.run_task = run_task
        # Optional BlacklistTracker consulted at placement (excludeOn-
        # Failure); None or a disabled tracker leaves dispatch untouched.
        self.blacklist = blacklist
        # Queued entries and launched-but-unfinished attempts, keyed by
        # sequence number.  Dicts, not sets: sequence order is launch
        # order is iteration order, so executor removal is deterministic.
        self._pending: Dict[int, _PendingEntry] = {}
        self._running: Dict[int, _RunningRecord] = {}
        self._sequence = itertools.count()
        self._free_slots = sum(
            executor.free for executor in executors.values()
        )
        # The dispatch index: per locality level, bucket key -> entries
        # in sequence order.  Level 0 is keyed by preferred host, level
        # 1 by preferred datacenter, level 2 by None (run anywhere).
        self._buckets: Tuple[Dict[object, Dict[int, _PendingEntry]], ...] = (
            {},
            {},
            {},
        )
        # Live executors per datacenter and each host's rank in
        # ``executors`` order (the last tie-break of a placement).
        self._executors_in: Dict[str, List[Executor]] = {}
        self._host_rank: Dict[str, int] = {}
        for rank, (host, executor) in enumerate(executors.items()):
            self._executors_in.setdefault(
                topology.datacenter_of(host), []
            ).append(executor)
            self._host_rank[host] = rank
        # (instant, sequence, level): the first instant at which the
        # wait of pending entry ``sequence`` for ``level`` is over — when
        # its tier opens, and when the wake-up timer must fire if a slot
        # is still free.  Lazy deletion: an item whose sequence is no
        # longer pending is skipped; items name the entry rather than
        # hold it, so a launched task is not kept alive by its timers.
        self._tiers: List[Tuple[float, int, int]] = []
        self._wake_planned_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, task: Task) -> Event:
        """Queue a task; returns an event firing with its TaskResult."""
        completion = self.sim.event(name=f"{task.task_id}:done")
        self._enqueue(_PendingEntry(task, completion))
        self._dispatch()
        return completion

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
        executor = self.executors.pop(host)
        self._free_slots -= executor.free
        self._executors_in[self.topology.datacenter_of(host)].remove(executor)
        relaunched = 0
        for record in list(self._running.values()):
            if record.host == host and not record.lost:
                record.lost = True
                relaunched += 1
                record.process.interrupt(f"executor {host} lost")
        # Pending tasks that preferred the dead host re-dispatch on the
        # survivors (their locality waits keep ticking unchanged); one
        # whose last live preference this was may now run anywhere, and
        # a pool share with no live host left stops confining its tasks.
        orphans = self._buckets[_HOST_LOCAL].pop(host, {})
        for entry in orphans.values():
            hosts = tuple(
                pref for pref in entry.filed[_HOST_LOCAL] if pref != host
            )
            entry.filed[_HOST_LOCAL] = hosts
            if not hosts:
                self._forget_preferences(entry)
        for entry in self._pending.values():
            if entry.allowed is not None and host in entry.allowed:
                entry.allowed = self._allowed_hosts(entry.task)
        self._dispatch()
        return relaunched

    # ------------------------------------------------------------------
    # The dispatch index
    # ------------------------------------------------------------------
    def _enqueue(self, entry: _PendingEntry) -> None:
        """File ``entry`` under a fresh sequence number, as of now."""
        task = entry.task
        now = self.sim.now
        task.submit_time = now
        sequence = entry.sequence = next(self._sequence)
        self._pending[sequence] = entry
        entry.allowed = self._allowed_hosts(task)
        preferred = task.preferred_hosts
        if not preferred:
            self._file(entry, _ANY, (None,))
            return
        entry.datacenters = tuple(
            dict.fromkeys(map(self.topology.datacenter_of, preferred))
        )
        for level, wait in self._tier_waits:
            heapq.heappush(
                self._tiers,
                (_first_instant(now, wait), sequence, level),
            )
        hosts = tuple(
            filter(self.executors.__contains__, dict.fromkeys(preferred))
        )
        if hosts:
            self._file(entry, _HOST_LOCAL, hosts)
        else:
            self._forget_preferences(entry)

    def _file(self, entry: _PendingEntry, level: int, keys: tuple) -> None:
        """Add ``entry`` to the ``level`` buckets named by ``keys``."""
        entry.filed[level] = keys
        buckets = self._buckets[level]
        sequence = entry.sequence
        for key in keys:
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = {sequence: entry}
            elif sequence > next(reversed(bucket)):
                bucket[sequence] = entry
            else:
                # A tier that opened out of submission order (a later
                # entry filed early by _forget_preferences, an executor
                # loss): restore sequence order.
                bucket[sequence] = entry
                buckets[key] = dict(sorted(bucket.items()))

    def _unfile(self, entry: _PendingEntry, level: int) -> None:
        buckets = self._buckets[level]
        for key in entry.filed[level]:
            bucket = buckets[key]
            del bucket[entry.sequence]
            if not bucket:
                del buckets[key]
        entry.filed[level] = ()

    def _forget_preferences(self, entry: _PendingEntry) -> None:
        """Every preferred host of ``entry`` is dead (e.g. a datacenter
        outage took the elected aggregator): waiting out the locality
        tiers cannot help, so it may run anywhere now and the read path
        escalates to re-election instead of stalling."""
        self._unfile(entry, _DC_LOCAL)
        if not entry.filed[_ANY]:
            self._file(entry, _ANY, (None,))

    def _open_tiers(self) -> None:
        """Move every entry whose locality wait is over up a tier."""
        tiers = self._tiers
        now = self.sim.now
        while tiers and tiers[0][0] <= now:
            _instant, sequence, level = heapq.heappop(tiers)
            entry = self._pending.get(sequence)
            if entry is None or entry.filed[level]:
                continue
            if level == _ANY:
                self._file(entry, _ANY, (None,))
            elif entry.filed[_HOST_LOCAL]:
                self._file(entry, _DC_LOCAL, entry.datacenters)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Greedily match free slots to eligible pending tasks."""
        if self._pending and self._free_slots:
            self._open_tiers()
            blacklist = self.blacklist
            vetoes: Optional[Dict[object, Optional[set]]] = (
                {} if blacklist is not None and blacklist.enabled else None
            )
            while self._pending and self._free_slots:
                assignment = self._best_assignment(vetoes)
                if assignment is None:
                    break
                entry, executor = assignment
                del self._pending[entry.sequence]
                for level in (_HOST_LOCAL, _DC_LOCAL, _ANY):
                    if entry.filed[level]:
                        self._unfile(entry, level)
                self._launch(entry, executor)
        self._plan_wakeup()

    def _best_assignment(
        self, vetoes: Optional[Dict[object, Optional[set]]]
    ) -> Optional[Tuple[_PendingEntry, Executor]]:
        """The (task, executor) pair with the best locality, if any.

        Ranked by locality level, then submission order, then most free
        slots (spreading load like Spark standalone's ``spreadOut``),
        then ``executors`` order.  Each free host under a non-empty
        bucket offers that bucket's lowest-sequence entry it may run;
        the first level with an offer decides.
        """
        executors = self.executors
        host_rank = self._host_rank
        passed_over = False
        best: Optional[Tuple[_PendingEntry, Executor]] = None
        best_rank: Optional[Tuple[int, int, int]] = None
        for level, buckets in enumerate(self._buckets):
            for key, bucket in buckets.items():
                if level == _HOST_LOCAL:
                    candidates = (executors[key],)
                elif level == _DC_LOCAL:
                    candidates = self._executors_in.get(key, ())
                else:
                    candidates = executors.values()
                for executor in candidates:
                    if executor.busy >= executor.cores:
                        continue
                    host = executor.host
                    for entry in bucket.values():
                        allowed = entry.allowed
                        if allowed is not None and host not in allowed:
                            continue
                        if vetoes is not None:
                            vetoed = self._vetoed_hosts(entry.task, vetoes)
                            if vetoed is not None and host in vetoed:
                                passed_over = True
                                continue
                        rank = (
                            entry.sequence,
                            executor.busy - executor.cores,
                            host_rank[host],
                        )
                        if best_rank is None or rank < best_rank:
                            best_rank = rank
                            best = (entry, executor)
                        break
            if best is not None:
                break
        if passed_over:
            self.blacklist.counters.placements_vetoed += 1
        return best

    def _allowed_hosts(self, task: Task) -> Optional[frozenset]:
        """The executor-pool share ``task`` is confined to, or None.

        Anti-starvation override (mirrors the blacklist veto): when no
        allowed host is a live executor — e.g. the share's hosts all
        died — the restriction is ignored so the job keeps making
        progress on the survivors instead of deadlocking.
        """
        allowed = task.allowed_hosts
        if not allowed or allowed.isdisjoint(self.executors):
            return None
        return allowed

    def _vetoed_hosts(
        self, task: Task, vetoes: Dict[object, Optional[set]]
    ) -> Optional[set]:
        """The hosts the blacklist excludes for ``task``, or None.

        Anti-starvation override: when *every* live executor is
        excluded, the blacklist is ignored for this task — a wedged
        exclusion list must never deadlock the dispatcher.  ``vetoes``
        memoises the answer per stage for one dispatch.
        """
        stage = getattr(task, "stage", None)
        stage_id = stage.stage_id if stage is not None else None
        if stage_id in vetoes:
            return vetoes[stage_id]
        blacklist = self.blacklist
        vetoed: Optional[set] = {
            host
            for host in self.executors
            if blacklist.is_excluded(host, stage_id)
        }
        if not vetoed or len(vetoed) >= len(self.executors):
            vetoed = None
        vetoes[stage_id] = vetoed
        return vetoed

    def _launch(self, entry: _PendingEntry, executor: Executor) -> None:
        executor.busy += 1
        executor.tasks_run += 1
        self._free_slots -= 1
        record = _RunningRecord(entry, executor.host)
        self._running[entry.sequence] = record
        record.process = self.sim.spawn(
            self._run_wrapper(record),
            name=f"{entry.task.task_id}@{executor.host}",
        )

    def _finish_attempt(self, record: _RunningRecord) -> None:
        del self._running[record.entry.sequence]
        executor = self.executors.get(record.host)
        if executor is not None:
            executor.busy -= 1
            self._free_slots += 1

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
                self._enqueue(entry)
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
        if not self._pending or self._free_slots == 0:
            return
        now = self.sim.now
        # _dispatch has just opened every tier due by now, so the
        # earliest live item is the next instant eligibility changes.
        tiers = self._tiers
        while tiers and tiers[0][1] not in self._pending:
            heapq.heappop(tiers)
        next_time: Optional[float] = tiers[0][0] if tiers else None
        # A blacklist expiry can unblock a vetoed placement even though
        # no locality tier is pending.
        if self.blacklist is not None and self.blacklist.enabled:
            expiry = self.blacklist.next_expiry()
            if expiry is not None and expiry > now:
                if next_time is None or expiry < next_time:
                    next_time = expiry
        if next_time is None:
            return
        if self._wake_planned_at is not None and (
            self._wake_planned_at <= next_time
            and self._wake_planned_at > now
        ):
            return  # an earlier-or-equal wake is already scheduled
        self._wake_planned_at = next_time
        wake = self.sim.timeout(next_time - now, name="sched:wake")
        wake.add_callback(lambda _event: self._on_wake())

    def _on_wake(self) -> None:
        self._wake_planned_at = None
        self._dispatch()
