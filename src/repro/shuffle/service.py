"""The shuffle service: a pluggable data path for stage boundaries.

The paper's contribution is *replacing* Spark's fetch-based shuffle with
a Push/Aggregate strategy; this module lifts that choice out of the
scheduler and into a swappable **backend**, so a shuffle strategy is a
registered component rather than a set of branches spread over the DAG
scheduler, the RDD layer, and the experiment harness.

:class:`ShuffleBackend` is the protocol every strategy implements:
rewrite the job lineage (``prepare_job``), open per-shuffle lifecycle
(``register_shuffle``), publish map output (``register_map_output``),
optionally reorganise map output before reducers start
(``prepare_shuffle_input``), serve reduce reads (``shuffle_read``) and
receiver pulls (``transfer_read``), and account every byte it moves in
its :class:`~repro.metrics.perf.ShuffleCounters`.  The cluster context
binds exactly one backend, chosen by ``ShuffleConfig.backend``, as
its ``shuffle_service``; the scheduler, the task runtime and the task
runner call it directly.

The base class owns the one data path every backend composes (DESIGN.md
§8): **move** (``_move`` / ``_move_read``, and the reduce read's
:func:`~repro.failures.health.read_flow`: the only places a flow is
issued, each counted where it lands), **read** (``shuffle_read``),
**stage once** (the ``_stage`` hook's lifecycle) and **relocate**
(``relocate_map_output``).
A map output has one record, its
:class:`~repro.shuffle.map_output_tracker.MapStatus` in the
:class:`~repro.shuffle.map_output_tracker.MapOutputTracker` (the host of
every copy, replicas and durable copy included, and the shards); staged
transfer partitions have theirs in the
:class:`~repro.shuffle.stores.TransferTracker`.  Backends reorganise
*where* data lives, never what it is.
"""

from __future__ import annotations

from functools import partial
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Set, Tuple,
)

from repro.errors import FetchFailedError
from repro.failures.health import read_flow, transfer_with_retry
from repro.metrics.perf import ShuffleCounters
from repro.rdd.shuffled import gather
from repro.rdd.size_estimator import view
from repro.shuffle.map_output_tracker import HostLoss, MapStatus, ShuffleShard

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.context import ClusterContext
    from repro.rdd.dependencies import ShuffleDependency, TransferDependency
    from repro.rdd.rdd import RDD
    from repro.scheduler.stage import Stage
    from repro.scheduler.task_runtime import TaskRuntime


class ShuffleBackend:
    """Base backend: Spark's fetch semantics, fully accounted.

    Subclasses override the hooks they change and set the class
    attributes:

    * ``name``               — registry key (``ShuffleConfig.backend``);
    * ``flow_tags``          — the traffic-monitor tags of every flow
      this backend issues; the counter/monitor equivalence property is
      stated over exactly these tags.

    The one real difference between the backends' reduce reads is
    passed to the constructor as data: ``coalesced_reads`` (one flow per
    remote *source host* instead of one per remote shard — what staging
    map output onto few hosts buys) and ``read_tag`` (the monitor tag of
    those flows).
    """

    name: str = "abstract"
    flow_tags: Tuple[str, ...] = ("shuffle", "transfer_to")

    def __init__(
        self, coalesced_reads: bool = False, read_tag: str = "shuffle"
    ) -> None:
        self.context: ClusterContext = None  # type: ignore[assignment]
        self.counters = ShuffleCounters()
        self._coalesced_reads = coalesced_reads
        self._read_tag = read_tag
        # Shuffles whose map output ``_stage`` already reorganised; a
        # shuffle is staged at most once (iterative jobs reuse the
        # layout) until a failure handler forgets it.
        self._staged: Set[int] = set()

    def bind(self, context: ClusterContext) -> None:
        """Attach to one cluster context (called once by the context)."""
        self.context = context

    def perf_snapshot(self) -> Dict[str, float]:
        """Flat counter summary for ``RunResult.shuffle_perf``."""
        return self.counters.as_dict()

    # ------------------------------------------------------------------
    # Lineage rewriting
    # ------------------------------------------------------------------
    def prepare_job(self, final_rdd: RDD) -> RDD:
        """Hook to rewrite the lineage before stage building (identity
        by default; the push backend embeds ``transfer_to`` here)."""
        return final_rdd

    # ------------------------------------------------------------------
    # Lifecycle and map-output publication
    # ------------------------------------------------------------------
    def register_shuffle(self, shuffle_id: int, num_maps: int) -> None:
        tracker = self.context.map_output_tracker
        known = tracker.is_registered(shuffle_id)
        tracker.register_shuffle(shuffle_id, num_maps)
        if not known:
            self.counters.shuffles_registered += 1

    def register_map_output(
        self,
        shuffle_id: int,
        map_index: int,
        host: str,
        shards: List[ShuffleShard],
    ) -> None:
        """Publish one map partition's sharded output at ``host``."""
        self.relocate_map_output(shuffle_id, map_index, host, shards)
        self.counters.map_outputs_registered += 1

    def relocate_map_output(
        self,
        shuffle_id: int,
        map_index: int,
        host: str,
        shards: List[ShuffleShard],
        replicas: Iterable[str] = (),
        handed_off: bool = False,
    ) -> None:
        """(Re-)register an existing map output at ``host`` — a merge,
        hand-off, PUT or restore — without counting a new one.  The new
        record names every copy: ``host``, the other hosts in
        ``replicas``, and the marks :class:`MapStatus` documents."""
        others = sorted(set(replicas) - {host})
        self.context.map_output_tracker.register_map_output(
            shuffle_id,
            MapStatus(map_index, host, shards, others, handed_off),
        )

    def remove_shuffle(self, shuffle_id: int) -> None:
        """Drop one shuffle's map outputs."""
        self.context.map_output_tracker.unregister_shuffle(shuffle_id)
        self._staged.discard(shuffle_id)

    def on_host_failure(self, host: str, loss: HostLoss) -> None:
        """Invalidate backend state referring to ``host`` (no-op here).
        ``loss`` is what the tracker's ``unregister_host`` already did
        to the map outputs."""

    def on_blocks_lost(self, dep: ShuffleDependency, tenant: str = ""):
        """Simulation process run by the DAG scheduler after the lost
        partitions of ``dep``'s producing stage were recomputed, before
        any consumer retries its read: re-stage them, recovery-tagged.

        A no-op for fetch (it simply re-fetches the recovered outputs,
        over WAN when they are remote, Fig. 2a) and push (it recovers
        through its receiver stage).
        """
        self._staged.add(dep.shuffle_id)
        yield from self._stage(dep, recovery=True, tenant=tenant)

    def merger_host(self, datacenter: str) -> Optional[str]:
        """The host this backend consolidated ``datacenter``'s map
        output onto, if it has such a notion (chaos targeting hook)."""
        return None

    def shuffle_worker_host(self, datacenter: str) -> Optional[str]:
        """The dedicated shuffle-worker host serving ``datacenter``, if
        this backend runs a worker pool (``shuffle_worker`` chaos
        targeting hook; None for lineage-recovered backends)."""
        return None

    def blob_store(self):
        """The backend's object store, if it has one (``blob_outage``
        chaos targeting hook; None for every other backend)."""
        return None

    # ------------------------------------------------------------------
    # Pre-reduce reorganisation
    # ------------------------------------------------------------------
    def prepare_stage_inputs(self, stage: Stage):
        """Run :meth:`prepare_shuffle_input` once for every shuffle this
        stage consumes (a simulation sub-process of the stage)."""
        seen = set()
        for dep in stage.boundary_shuffle_deps:
            if dep.shuffle_id in seen:
                continue
            seen.add(dep.shuffle_id)
            yield from self.prepare_shuffle_input(
                dep, tenant=stage.tenant or ""
            )

    def prepare_shuffle_input(self, dep: ShuffleDependency, tenant: str = ""):
        """Simulation process run after the map barrier, before the
        consuming stage's tasks launch: stage the shuffle's map output
        unless that already happened.  ``tenant`` attributes the flows
        staging may issue."""
        if dep.shuffle_id in self._staged:
            return
        self._staged.add(dep.shuffle_id)
        yield from self._stage(dep, recovery=False, tenant=tenant)

    def _stage(self, dep: ShuffleDependency, recovery: bool, tenant: str):
        """Hook: reorganise where ``dep``'s map output lives before
        reducers read it (consolidate / hand off / PUT).  Fetch and push
        leave it where the map tasks wrote it."""
        return
        yield  # pragma: no cover - makes this a generator

    # ------------------------------------------------------------------
    # Reduce-side reads
    # ------------------------------------------------------------------
    def shuffle_read(
        self, runtime: TaskRuntime, dep: ShuffleDependency, reduce_index: int
    ):
        """Read this reducer's shards from every map output location.

        Shards are gathered in global map-index order — so reduce input
        is byte-identical whatever the backend did to the layout —
        host-local bytes cost only disk time, and remote bytes move as
        *concurrent* flows: one per remote shard (the bursty all-to-all
        of §II-B; in push mode the tracker points at receiver hosts, so
        the same loop becomes a mostly datacenter-local read), or, with
        ``coalesced_reads``, one per remote source host.

        Spark's FetchFailed check comes first: a reducer must see
        *every* map output.  After a host loss the tracker silently
        drops the lost entries, so an incomplete shuffle here means
        blocks are gone — fail before reading anything and let the DAG
        scheduler recover from lineage instead of returning truncated
        input.
        """
        context = self.context
        shuffle_id = dep.shuffle_id
        if not context.map_output_tracker.is_complete(shuffle_id):
            raise FetchFailedError(shuffle_id=shuffle_id)
        self.counters.reduce_reads += 1
        shards: List[List[Any]] = []
        local_bytes = 0.0
        requests = 0
        remote: List[Tuple[str, float]] = []
        for status in context.map_output_tracker.map_statuses(shuffle_id):
            shard = status.shards[reduce_index]
            shards.append(shard.records)
            if shard.size_bytes <= 0:
                continue
            requests += 1
            if status.host == runtime.host:
                local_bytes += shard.size_bytes
            else:
                remote.append((status.host, shard.size_bytes))
        records = gather(shards)
        if self._coalesced_reads:
            by_source: Dict[str, float] = {}
            for source, size in remote:
                by_source[source] = by_source.get(source, 0.0) + size
            remote = sorted(by_source.items())
        yield from self._before_remote_reads(requests, remote)

        def check() -> None:
            if not context.map_output_tracker.is_complete(shuffle_id):
                raise FetchFailedError(shuffle_id=shuffle_id)

        tag = self._read_tag
        flows = []
        for source, size in remote:
            # Bytes and blocks are counted once per logical block,
            # whatever number of flow attempts delivers it.
            runtime.shuffle_bytes_fetched += size
            self.counters.blocks_fetched += 1
            flows.append(
                read_flow(
                    context, source, runtime.host, size, tag,
                    runtime.tenant,
                    self._counted(shuffle_id, runtime.task.recovery),
                    check,
                    name=f"{tag}-retry:s{shuffle_id}r{reduce_index}@{source}",
                )
            )
        if local_bytes > 0:
            yield context.sim.timeout(
                context.config.disk.read_time(local_bytes)
            )
            runtime.bytes_read_local += local_bytes
            self.counters.note_local_read(local_bytes)
        if flows:
            yield context.sim.all_of(flows)
        return records

    def _before_remote_reads(self, requests: int, remote: List[Tuple[str, float]]):
        """Hook (simulation process) run once per reduce read before its
        flows are issued: ``requests`` non-empty shards are about to be
        read, ``remote`` lists the (source host, bytes) flows.  The blob
        backend meters and delays its GETs here."""
        return
        yield  # pragma: no cover - makes this a generator

    # ------------------------------------------------------------------
    # Transfer boundaries (the push path's unit of data movement)
    # ------------------------------------------------------------------
    def stage_transfer_partition(
        self,
        transfer_id: int,
        partition_index: int,
        host: str,
        records: List[Any],
        size_bytes: float,
    ) -> None:
        """Stage a whole partition at ``host`` for a receiver pull."""
        self.context.transfer_tracker.stage_partition(
            transfer_id, partition_index, host, records, size_bytes
        )
        self.counters.blocks_pushed += 1

    def transfer_read(
        self, runtime: TaskRuntime, dep: TransferDependency, index: int
    ):
        """Pull a staged partition from its origin (receiver task);
        a no-op when the partition is already local."""
        tracker = self.context.transfer_tracker

        def lookup():
            staged = tracker.try_get(dep.transfer_id, index)
            if staged is None:
                # The staged partition was lost with its host:
                # FetchFailed, so the DAG scheduler resubmits the
                # producer from lineage.
                raise FetchFailedError(transfer_id=dep.transfer_id)
            return staged

        staged = lookup()
        if staged.host != runtime.host and staged.size_bytes > 0:
            runtime.bytes_transferred_in += staged.size_bytes
            yield from self._move_read(
                lookup, staged.host, runtime.host, staged.size_bytes,
                "transfer_to", tenant=runtime.tenant,
                recovery=runtime.task.recovery,
            )
        return view(staged.records)

    # ------------------------------------------------------------------
    # Move: where flows are issued and counted
    # ------------------------------------------------------------------
    def _move(
        self,
        src: str,
        dst: str,
        size_bytes: float,
        tag: str,
        tenant: str = "",
        shuffle_id: int | None = None,
        recovery: bool = False,
    ):
        """Issue one flow and return its completion event.  Its bytes
        reach the counters where they land (see :meth:`_counted`)."""
        return self.context.fabric.transfer(
            src, dst, size_bytes, tag=tag, tenant=tenant,
            on_land=self._counted(shuffle_id, recovery),
        )

    def _move_read(
        self,
        check: Callable[[], object],
        src: str,
        dst: str,
        size_bytes: float,
        tag: str,
        tenant: str = "",
        shuffle_id: int | None = None,
        recovery: bool = False,
    ):
        """A *read's* move, as a simulation process: the flow-retry loop
        (:func:`repro.failures.health.transfer_with_retry`; one plain
        flow while flow retry is off), every attempt counted where it
        lands.  ``check`` raises ``FetchFailedError`` when the data
        itself is gone."""
        yield from transfer_with_retry(
            self.context, [src], dst, size_bytes, tag, tenant,
            self._counted(shuffle_id, recovery), check,
        )

    def _counted(self, shuffle_id: int | None, recovery: bool):
        """The ``on_land`` of a backend flow: the fabric hands the
        counters the bytes a flow delivered at the instant it records
        them with the traffic monitor — the full size when it finishes,
        the delivered part when it is cancelled, nothing while it is in
        flight — so counters == monitor holds at every instant."""
        return partial(
            self.counters.note_flow, shuffle_id=shuffle_id, recovery=recovery
        )
