"""ShuffleWorkerPool: a dedicated, replicated shuffle-worker tier.

The FuxiShuffle argument (PAPERS.md) is that shuffle durability belongs
in a *service*, not in executor lineage: map output is handed to
dedicated shuffle workers, replicated r∈{1,2,3} ways, and a worker loss
becomes a storage-durability non-event — surviving replicas keep
serving reads with zero stage resubmission, and a background copy
restores the replication factor.

This module is the placement half of that tier; the ``remote`` backend
(:mod:`repro.shuffle.backends.remote`) drives it and issues the actual
network flows.  The pool tracks only its workers:

* which physical hosts act as shuffle workers, per datacenter
  (placement is deterministic: the lexicographically first live hosts);
* per-worker load (assigned bytes) for least-loaded shard assignment
  and per-worker memory buffers (bytes past the buffer are *spilled* —
  charged disk time and counted, never silently dropped).

Where each output's copies live — the serving worker and the replica
workers — is part of the output's one record, its
:class:`~repro.shuffle.map_output_tracker.MapStatus`; the tracker, not
the pool, applies a worker loss to it.

Every iteration is over sorted keys, so pool decisions depend only on
the byte distribution — never on dict order — and replay identically
under ``REPRO_SANITIZE``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.topology import Topology

# Workers pinned per datacenter, and the per-worker memory buffer before
# accepted bytes spill to local disk.
WORKERS_PER_DATACENTER = 1
WORKER_BUFFER_BYTES = 64e6


class ShuffleWorker:
    """One dedicated shuffle worker pinned to a physical host."""

    __slots__ = ("host", "datacenter", "assigned_bytes")

    def __init__(self, host: str, datacenter: str) -> None:
        self.host = host
        self.datacenter = datacenter
        self.assigned_bytes = 0.0

    def accept(self, size_bytes: float) -> float:
        """Account ``size_bytes`` stored here; returns the portion that
        overflowed the memory buffer and spilled to local disk."""
        before = self.assigned_bytes
        self.assigned_bytes = before + size_bytes
        over = self.assigned_bytes - WORKER_BUFFER_BYTES
        if over <= 0:
            return 0.0
        return min(size_bytes, over)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShuffleWorker({self.host}, {self.assigned_bytes / 1e6:.1f}MB)"
        )


class ShuffleWorkerPool:
    """Worker placement and load-aware assignment."""

    __slots__ = ("topology", "_workers")

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        # host -> ShuffleWorker (insertion order is provision order, but
        # every selection below sorts explicitly).
        self._workers: Dict[str, ShuffleWorker] = {}

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def provision(self, datacenter: str, live_hosts: List[str]) -> None:
        """(Re-)pin ``datacenter``'s shuffle workers to the first
        ``WORKERS_PER_DATACENTER`` live hosts, lexicographically —
        deterministic across runs and stable under unrelated losses."""
        chosen = sorted(live_hosts)[:WORKERS_PER_DATACENTER]
        for host in chosen:
            if host not in self._workers:
                self._workers[host] = ShuffleWorker(host, datacenter)

    def workers_in(self, datacenter: str) -> List[ShuffleWorker]:
        return [
            self._workers[host]
            for host in sorted(self._workers)
            if self._workers[host].datacenter == datacenter
        ]

    def all_workers(self) -> List[ShuffleWorker]:
        return [self._workers[host] for host in sorted(self._workers)]

    def is_worker(self, host: str) -> bool:
        return host in self._workers

    def worker_host(self, datacenter: str) -> Optional[str]:
        """The busiest worker of ``datacenter`` — the host a
        ``shuffle_worker`` chaos event meaningfully targets."""
        workers = self.workers_in(datacenter)
        if not workers:
            return None
        return min(workers, key=lambda w: (-w.assigned_bytes, w.host)).host

    # ------------------------------------------------------------------
    # Load-aware assignment
    # ------------------------------------------------------------------
    def assign(self, datacenter: str) -> Optional[ShuffleWorker]:
        """The least-loaded worker in ``datacenter`` (ties break to the
        lexicographically first host); any worker when the datacenter
        has none left."""
        candidates = self.workers_in(datacenter) or self.all_workers()
        if not candidates:
            return None
        return min(candidates, key=lambda w: (w.assigned_bytes, w.host))

    def replica_targets(
        self, primary_host: str, count: int, exclude: Iterable[str] = ()
    ) -> List[ShuffleWorker]:
        """Up to ``count`` replica workers for a primary at
        ``primary_host``: other-datacenter workers first (so a whole-DC
        outage cannot take every copy), least-loaded within each tier."""
        primary_dc = self._workers[primary_host].datacenter if (
            primary_host in self._workers
        ) else self.topology.datacenter_of(primary_host)
        banned = set(exclude) | {primary_host}
        remote = sorted(
            (w for w in self.all_workers()
             if w.host not in banned and w.datacenter != primary_dc),
            key=lambda w: (w.assigned_bytes, w.host),
        )
        local = sorted(
            (w for w in self.all_workers()
             if w.host not in banned and w.datacenter == primary_dc),
            key=lambda w: (w.assigned_bytes, w.host),
        )
        return (remote + local)[:count]

    # ------------------------------------------------------------------
    # Worker loss
    # ------------------------------------------------------------------
    def on_worker_lost(self, host: str) -> bool:
        """Forget ``host``; True if it was a worker."""
        return self._workers.pop(host, None) is not None
