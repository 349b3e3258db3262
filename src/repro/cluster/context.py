"""ClusterContext: the SparkContext of the simulated cluster.

Owns every runtime component for one simulated deployment and exposes the
user API:

* data ingestion — :meth:`write_input_file` + :meth:`text_file`, or
  :meth:`parallelize`;
* RDD actions are invoked *on RDDs* (``rdd.collect()``); they call back
  into :meth:`run_collect` etc., which spawn the DAG scheduler on the
  simulator and step it until the job finishes;
* the simulated clock keeps running across jobs, so iterative workloads
  and repeated measurements compose naturally.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.config import SimulationConfig
from repro.cluster.builder import ClusterSpec, build_topology
from repro.errors import ConfigurationError
from repro.failures.chaos import ChaosInjector
from repro.failures.health import BlacklistTracker, LinkHealthMonitor
from repro.failures.injector import FailureInjector
from repro.metrics.collectors import MetricsCollector
from repro.metrics.perf import HealthCounters, RecoveryCounters
from repro.network.fabric import NetworkFabric
from repro.network.jitter import BandwidthJitter
from repro.network.traffic_monitor import TrafficMonitor
from repro.rdd.rdd import RDD, HadoopRDD, ParallelizedRDD
from repro.rdd.size_estimator import SizeEstimator
from repro.scheduler.cache import CacheManager
from repro.scheduler.dag_scheduler import DAGScheduler
from repro.scheduler.task_runner import TaskRunner
from repro.scheduler.task_scheduler import (
    RECEIVER_WAITS,
    Executor,
    TaskScheduler,
)
from repro.shuffle.backends import create_backend
from repro.shuffle.map_output_tracker import MapOutputTracker
from repro.shuffle.stores import TransferTracker
from repro.simulation.kernel import Simulator
from repro.simulation.random_source import RandomSource
from repro.storage.hdfs import DistributedFileSystem


class ClusterContext:
    """A fully assembled simulated geo-distributed Spark cluster."""

    def __init__(
        self,
        spec: ClusterSpec,
        config: Optional[SimulationConfig] = None,
        straggler_model=None,
    ) -> None:
        self.spec = spec
        self.config = config if config is not None else SimulationConfig()
        self.config.validate()

        self.sim = Simulator(
            wall_deadline_seconds=self.config.max_wall_seconds
        )
        self.randomness = RandomSource(self.config.seed)
        self.topology = build_topology(spec)
        self.traffic = TrafficMonitor()
        self.fabric = NetworkFabric(self.sim, self.topology, monitor=self.traffic)
        self.driver_host = spec.driver_host_name

        worker_names = spec.worker_names()
        self.dfs = DistributedFileSystem(
            self.topology.all_host_names(),
            replication=self.config.dfs_replication,
        )
        self.estimator = SizeEstimator(scale_factor=self.config.scale_factor)
        self.cache = CacheManager()
        self.map_output_tracker = MapOutputTracker()
        self.transfer_tracker = TransferTracker()
        # The pluggable shuffle data path: one backend per context,
        # selected by name (the repro.shuffle.backends.BACKENDS table).
        self.shuffle_service = create_backend(self.config.shuffle.backend)
        self.shuffle_service.bind(self)
        self.metrics = MetricsCollector()
        self.recovery = RecoveryCounters()
        # Health-aware degradation (opt-in via config.health): the
        # placement blacklist and the per-WAN-pair circuit breakers,
        # both reporting into the shared HealthCounters.
        self.health = HealthCounters()
        self.blacklist = BlacklistTracker(
            self.config.health, self.health, self.topology, self.sim
        )
        self.link_health = LinkHealthMonitor(
            self.config.health, self.health, self.topology, self.fabric, self.sim
        )
        self.failure_injector = FailureInjector(
            self.config.failures,
            self.randomness.child("failures"),
            straggler_model=straggler_model,
        )

        self.executors: Dict[str, Executor] = {
            name: Executor(name, self.config.cores_per_host)
            for name in worker_names
        }
        runner = TaskRunner(self)
        self.task_scheduler = TaskScheduler(
            self.sim,
            self.topology,
            self.executors,
            run_task=runner.run,
            blacklist=self.blacklist,
        )
        # Receiver (transferTo) tasks are I/O-bound: they stream pushed
        # map output, overlapping computation on the same workers (the
        # paper's transfers begin while mappers are still producing,
        # §IV-B).  They therefore run on a dedicated per-host transfer
        # service rather than competing for compute slots, and queue
        # there for the aggregator datacenter (RECEIVER_WAITS).
        self.transfer_executors: Dict[str, Executor] = {
            name: Executor(name, self.config.cores_per_host)
            for name in worker_names
        }
        self.transfer_scheduler = TaskScheduler(
            self.sim,
            self.topology,
            self.transfer_executors,
            run_task=runner.run,
            blacklist=self.blacklist,
            waits=RECEIVER_WAITS,
        )
        self.dag_scheduler = DAGScheduler(self)
        # Jobs started on this context so far (each job's ordinal).
        self.jobs_started = 0

        # Timed infrastructure faults: the injector process fires the
        # configured chaos schedule into this context as simulated time
        # passes (executor crashes, host/DC losses, WAN degradation).
        self.chaos_injector: Optional[ChaosInjector] = None
        if self.config.chaos is not None and self.config.chaos:
            self.chaos_injector = ChaosInjector(self, self.config.chaos)
            self.chaos_injector.start()

        self._jitter: Optional[BandwidthJitter] = None
        if self.config.jitter is not None:
            self._jitter = BandwidthJitter(
                self.sim,
                self.fabric,
                self.topology.wan_links(),
                self.config.jitter,
                randomness=self.randomness.child("jitter"),
            )
            self._jitter.start()
            # Region gateways stay static: they model provisioned border
            # capacity, while the measured EC2 fluctuation (80-300 Mbps)
            # lives on the per-region-pair paths.

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------
    @property
    def default_parallelism(self) -> int:
        """One wave of cores in a single datacenter (paper §V-A sets
        the max parallelism of map and reduce to 8 = one region's cores)."""
        return self.spec.workers_per_datacenter * self.config.cores_per_host

    def workers_in(self, datacenter: str) -> List[str]:
        return [
            host
            for host in self.topology.hosts_in(datacenter)
            if host in self.executors
        ]

    # ------------------------------------------------------------------
    # Data ingestion
    # ------------------------------------------------------------------
    def write_input_file(
        self,
        path: str,
        partitions: Sequence[List[Any]],
        placement_hosts: Optional[Sequence[str]] = None,
    ) -> None:
        """Create a DFS file with one block per partition.

        By default blocks round-robin across every worker in every
        datacenter — raw data "generated at geographically distributed
        datacenters".  Pass ``placement_hosts`` to skew or pin placement.
        """
        if placement_hosts is None:
            placement_hosts = self.spec.worker_names()
        sizes = [self.estimator.estimate(records) for records in partitions]
        self.dfs.write_file(path, partitions, sizes, list(placement_hosts))

    def text_file(self, path: str) -> HadoopRDD:
        """An RDD over an existing DFS file, one partition per block."""
        return HadoopRDD(self, path)

    def parallelize(self, records: Sequence[Any], num_slices: int = 1) -> RDD:
        """Distribute driver-local data as an RDD."""
        return ParallelizedRDD(self, records, num_slices)

    # ------------------------------------------------------------------
    # Job execution (called by RDD actions)
    # ------------------------------------------------------------------
    def run_collect(self, rdd: RDD) -> List[Any]:
        return self._run(rdd, "collect")

    def run_save(self, rdd: RDD, path: str) -> None:
        if not path:
            raise ConfigurationError("save path must be non-empty")
        return self._run(rdd, "save", save_path=path)

    def _run(self, rdd: RDD, action: str, save_path: Optional[str] = None):
        job = self.dag_scheduler.run_job(rdd, action, save_path=save_path)
        process = self.sim.spawn(job, name=f"job:{action}:{rdd.name}")
        return self.sim.run_until_event(process)

    # ------------------------------------------------------------------
    # Concurrent jobs (§IV-E: clusters are shared by multiple jobs)
    # ------------------------------------------------------------------
    def submit_job(
        self, rdd: RDD, action: str = "collect",
        save_path: Optional[str] = None,
        tenant: Optional[str] = None,
        allowed_hosts: Optional[frozenset] = None,
    ) -> JobHandle:
        """Start a job without blocking; returns a :class:`JobHandle`.

        Multiple submitted jobs share the cluster's executors, network,
        and trackers, contending for slots exactly as concurrent Spark
        jobs would.  Each job gets its own metrics collector.

        ``tenant`` attributes every flow the job issues (per-tenant WAN
        accounting and fair-share weighting); ``allowed_hosts`` confines
        its tasks to an executor-pool share granted by the inter-job
        scheduler.
        """
        metrics = MetricsCollector()
        scheduler = DAGScheduler(
            self, metrics=metrics, tenant=tenant, allowed_hosts=allowed_hosts
        )
        job = scheduler.run_job(rdd, action, save_path=save_path)
        process = self.sim.spawn(job, name=f"job:{action}:{rdd.name}")
        return JobHandle(process, metrics)

    def set_tenant_weight(self, tenant: str, weight: float) -> None:
        """Give ``tenant``'s flows a weighted max-min fair share."""
        self.fabric.set_tenant_weight(tenant, weight)

    # ------------------------------------------------------------------
    # Fault injection (chaos events and manual failures)
    # ------------------------------------------------------------------
    def crash_executor(self, host: str) -> int:
        """Crash the executor *process* on ``host``, keeping its storage.

        Models a Spark executor crash with the external shuffle service
        enabled: the host's compute and transfer slots vanish and every
        running attempt there is relaunched elsewhere, but shuffle
        output, staged partitions, cache entries, and DFS replicas all
        survive.  Safe mid-job.  Returns the number of relaunched
        attempts.
        """
        if host not in self.executors:
            raise ConfigurationError(f"unknown worker host {host!r}")
        if len(self.executors) <= 1:
            raise ConfigurationError(
                f"cannot crash {host!r}: it is the last live executor"
            )
        relaunched = self.task_scheduler.remove_executor(host)
        relaunched += self.transfer_scheduler.remove_executor(host)
        self.recovery.executor_crashes += 1
        self.recovery.tasks_relaunched += relaunched
        return relaunched

    def fail_host(self, host: str) -> Dict[str, int]:
        """Take a worker host down, losing everything it stored.

        Removes the executor (and transfer-service slots), its copies
        of shuffle output (an output left with no copy makes its shuffle
        incomplete, so dependent reads raise FetchFailed and the DAG
        scheduler recomputes exactly the missing partitions from
        lineage), staged transfer partitions, cached RDD partitions, and
        DFS replicas.  Safe mid-job: running attempts on the host are
        relaunched elsewhere.  Returns a summary of what was lost: map
        outputs left with no copy, not those a replica or a durable copy
        still serves.  Input blocks whose last replica lived here are
        gone for good — reading them raises, like HDFS with dead
        datanodes.
        """
        if host not in self.executors:
            raise ConfigurationError(f"unknown worker host {host!r}")
        if len(self.executors) <= 1:
            raise ConfigurationError(
                f"cannot fail {host!r}: it is the last live executor"
            )
        relaunched = self.task_scheduler.remove_executor(host)
        relaunched += self.transfer_scheduler.remove_executor(host)
        self.recovery.hosts_lost += 1
        self.recovery.tasks_relaunched += relaunched
        loss = self.map_output_tracker.unregister_host(host)
        self.transfer_tracker.remove_host(host)
        self.shuffle_service.on_host_failure(host, loss)
        cached_before = self.cache.entry_count
        self.cache.evict_host(host)
        lost_blocks = self.dfs.remove_host(host)
        return {
            "map_outputs_lost": len(loss.lost),
            "cached_partitions_lost": cached_before - self.cache.entry_count,
            "blocks_without_replicas": len(lost_blocks),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop background processes (jitter); the context stays readable."""
        if self._jitter is not None:
            self._jitter.stop()


class JobHandle:
    """A concurrently running job: its process (an event that fires with
    the job's result) and its own metrics."""

    def __init__(self, process, metrics) -> None:
        self.process = process
        self.metrics = metrics
