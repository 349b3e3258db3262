"""Implicit embedding of ``transfer_to`` before every shuffle (§IV-D).

This is the lineage-rewrite pass of the Push/Aggregate shuffle backend
(:class:`repro.shuffle.backends.push_aggregate.PushAggregateBackend`),
the analogue of setting ``spark.shuffle.aggregation=true``: the backend
calls :func:`insert_transfers` on the job's final RDD from its
``prepare_job`` hook, before the DAG scheduler builds stages.
Each shuffle dependency's parent is wrapped in a
:class:`~repro.rdd.transferred.TransferredRDD` with

* no explicit destination — it is resolved at producer-stage submission
  from the map-input distribution (§IV-D), and
* the shuffle's aggregator as ``pre_combine`` whenever the shuffle
  combines map-side, so combining happens *before* the WAN push
  (§IV-C-3) and only combined data crosses datacenters.

The rewrite mutates dependency edges in place (the lineage above the
shuffle is untouched), is idempotent, and skips shuffles whose parent is
already a TransferredRDD — including explicit developer-placed ones,
which therefore take precedence, matching the paper's "developers know
better" discussion in §IV-E.
"""

from __future__ import annotations

from typing import Set

from repro.rdd.dependencies import ShuffleDependency
from repro.rdd.rdd import RDD
from repro.rdd.transferred import TransferredRDD


def insert_transfers(final_rdd: RDD) -> RDD:
    """Embed a transfer before every shuffle reachable from ``final_rdd``.

    Returns ``final_rdd`` (rewritten in place) for call chaining.  The
    walk is depth first with dependencies in order, so transfers (and
    their ids) are created in lineage order.
    """
    visited: Set[int] = {final_rdd.rdd_id}
    stack = list(reversed(final_rdd.dependencies))
    while stack:
        dep = stack.pop()
        if isinstance(dep, ShuffleDependency) and not isinstance(
            dep.parent, TransferredRDD
        ):
            pre_combine = dep.aggregator if dep.map_side_combine else None
            dep.parent = TransferredRDD(
                dep.parent,
                destination_datacenter=None,
                pre_combine=pre_combine,
            )
        parent = dep.parent
        if parent.rdd_id not in visited:
            visited.add(parent.rdd_id)
            stack.extend(reversed(parent.dependencies))
    return final_rdd


def count_inserted_transfers(final_rdd: RDD) -> int:
    """How many shuffle parents are TransferredRDDs (for diagnostics)."""
    count = 0
    for rdd in final_rdd.lineage():
        for dep in rdd.dependencies:
            if isinstance(dep, ShuffleDependency) and isinstance(
                dep.parent, TransferredRDD
            ):
                count += 1
    return count
