"""Runtime selection of aggregator datacenters (paper §IV-D).

The destination of an implicit (or destination-less explicit)
``transfer_to`` is "the datacenter storing the largest amount of map
input, which is a known piece of information ... at the beginning of the
map task".  We therefore resolve destinations when the *producer* stage
is submitted, from the distribution of that stage's input:

* DFS blocks for input RDDs (first replica's datacenter),
* registered map outputs for upstream shuffles (all parent shuffle
  stages have completed by submission time),
* cached partition locations for cached RDDs.

``select_aggregator_datacenters`` also supports the k-subset extension
(aggregate into the k largest holders instead of exactly one).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Set

from repro.errors import SchedulerError
from repro.rdd.dependencies import ShuffleDependency, TransferDependency
from repro.rdd.rdd import HadoopRDD

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.context import ClusterContext
    from repro.scheduler.stage import Stage


def stage_input_bytes_by_datacenter(
    stage: Stage, context: ClusterContext
) -> Dict[str, float]:
    """Logical input bytes of a stage, aggregated per datacenter.

    The walk is depth first with dependencies in order — the order the
    per-datacenter sums are accumulated in.  The stack holds RDDs still
    to visit and boundary dependencies still to count.
    """
    topology = context.topology
    by_dc: Dict[str, float] = {name: 0.0 for name in topology.datacenters}
    visited: Set[int] = set()
    stack: list = [stage.rdd]
    while stack:
        item = stack.pop()
        if isinstance(item, ShuffleDependency):
            tracker = context.map_output_tracker
            if tracker.is_complete(item.shuffle_id):
                for dc, size in tracker.total_output_by_datacenter(
                    item.shuffle_id, topology.datacenter_of
                ).items():
                    by_dc[dc] = by_dc.get(dc, 0.0) + size
            continue
        if isinstance(item, TransferDependency):
            staged = context.transfer_tracker
            for partition in range(item.parent.num_partitions):
                entry = staged.try_get(item.transfer_id, partition)
                if entry is not None:
                    dc = topology.datacenter_of(entry.host)
                    by_dc[dc] = by_dc.get(dc, 0.0) + entry.size_bytes
            continue
        rdd = item
        if rdd.rdd_id in visited:
            continue
        visited.add(rdd.rdd_id)
        if rdd.cached:
            cached_any = False
            for partition in range(rdd.num_partitions):
                entry = context.cache.lookup(rdd.rdd_id, partition)
                if entry is not None:
                    dc = topology.datacenter_of(entry.host)
                    by_dc[dc] = by_dc.get(dc, 0.0) + entry.size_bytes
                    cached_any = True
            if cached_any:
                continue  # cached data is this branch's effective input
        if isinstance(rdd, HadoopRDD):
            for partition in range(rdd.num_partitions):
                block_id = rdd.block_id(partition)
                locations = context.dfs.block_locations(block_id)
                if not locations:
                    # Every replica died (re-election after an outage
                    # sizes against live state); the read path raises
                    # its own BlockNotFoundError if it is truly needed.
                    continue
                size = context.dfs.block_size(block_id)
                dc = topology.datacenter_of(locations[0])
                by_dc[dc] = by_dc.get(dc, 0.0) + size
            continue
        for dep in reversed(rdd.dependencies):
            stack.append(
                dep
                if isinstance(dep, (ShuffleDependency, TransferDependency))
                else dep.parent
            )
    return by_dc


def select_aggregator_datacenters(
    stage: Stage,
    context: ClusterContext,
    subset_size: int = 1,
    exclude: Sequence[str] = (),
) -> List[str]:
    """The ``subset_size`` datacenters holding the most stage input.

    Deterministic: sorted by (bytes descending, name ascending).
    ``exclude`` drops health-vetoed datacenters from the ranking (used
    by re-election after a blacklist/breaker verdict); when everything
    is excluded the unfiltered ranking stands — a suspect aggregator
    still beats no aggregator.  Falls back to the driver's datacenter
    when no input bytes are visible at all (e.g. a parallelized source).
    """
    if subset_size < 1:
        raise SchedulerError("subset_size must be >= 1")
    by_dc = stage_input_bytes_by_datacenter(stage, context)
    ranked = sorted(by_dc.items(), key=lambda item: (-item[1], item[0]))
    excluded = set(exclude)
    chosen = [
        dc for dc, size in ranked if size > 0 and dc not in excluded
    ][:subset_size]
    if not chosen:
        chosen = [dc for dc, size in ranked[:subset_size] if size > 0]
    if not chosen:
        chosen = [context.topology.datacenter_of(context.driver_host)]
    return chosen
