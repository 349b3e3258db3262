"""The paper's Push/Aggregate backend (``transferTo``, §IV).

``prepare_job`` embeds an implicit ``transfer_to`` before every shuffle
(the §IV-D rewrite, Spark's ``spark.shuffle.aggregation``; the rewrite
pass itself lives in :mod:`repro.core.transfer_injection`, whose sole
caller this backend is).  Map output is pushed — streamed by receiver
tasks into the aggregator datacenter while mappers are still producing —
so the subsequent shuffle read is mostly datacenter-local.  The read and
staging machinery is the inherited base-class path: the push strategy
changes *where shuffle input lives*, not what reducers do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.transfer_injection import insert_transfers
from repro.shuffle.service import ShuffleBackend

if TYPE_CHECKING:  # pragma: no cover
    from repro.rdd.rdd import RDD


class PushAggregateBackend(ShuffleBackend):
    """Push/Aggregate: implicit ``transfer_to`` before every shuffle."""

    name = "push_aggregate"
    scheme_label = "AggShuffle"
    flow_tags = ("shuffle", "transfer_to")

    def prepare_job(self, final_rdd: RDD) -> RDD:
        return insert_transfers(final_rdd)
