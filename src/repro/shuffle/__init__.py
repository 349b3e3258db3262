"""Shuffle machinery: the pluggable service and the output trackers.

* :class:`~repro.shuffle.service.ShuffleBackend` — the swappable data
  path: how map output is placed, reorganised, and served to reducers.
  Built-in strategies live in :mod:`repro.shuffle.backends` (fetch,
  push_aggregate, pre_merge, remote, blob) and are addressed by name
  through ``ShuffleConfig.backend``; the cluster context holds one as
  its ``shuffle_service``.
* :class:`~repro.shuffle.map_output_tracker.MapOutputTracker` — the one
  record of each map task's output: the host it lives at and its reduce
  shards (records and size), so reads can be charged as local disk or
  network flows (Spark keeps the metadata half under the same name).
* :class:`~repro.shuffle.stores.TransferTracker` — the analogous record
  for ``transfer_to`` boundaries: whole partitions staged at their
  origin host, waiting for a receiver task to pull them.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.shuffle.map_output_tracker": ("MapOutputTracker", "MapStatus"),
    "repro.shuffle.service": ("ShuffleBackend",),
    "repro.shuffle.stores": ("TransferTracker", "StagedPartition"),
})
