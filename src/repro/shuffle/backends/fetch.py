"""The Spark-baseline backend: fetch-based shuffle, no lineage rewrite.

This is "the deployment of Spark across geo-distributed datacenters,
without any optimization in terms of the wide-area network" (§V-A):
reducers fetch every shard from wherever its map task wrote it, one
concurrent flow per remote shard.  The whole data path is inherited from
:class:`~repro.shuffle.service.ShuffleBackend` — this class exists so
the baseline is a *named, registered* strategy rather than the implicit
absence of one.
"""

from __future__ import annotations

from repro.shuffle.service import ShuffleBackend


class FetchShuffleBackend(ShuffleBackend):
    """Spark's default fetch-based shuffle (the paper's baseline)."""

    name = "fetch"
    scheme_label = "Spark"
    flow_tags = ("shuffle", "transfer_to")
