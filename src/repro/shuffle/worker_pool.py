"""ShuffleWorkerPool: a dedicated, replicated shuffle-worker tier.

The FuxiShuffle argument (PAPERS.md) is that shuffle durability belongs
in a *service*, not in executor lineage: map output is handed to
dedicated shuffle workers, replicated r∈{1,2,3} ways, and a worker loss
becomes a storage-durability non-event — surviving replicas keep
serving reads with zero stage resubmission, and a background copy
restores the replication factor.

This module is the pure state machine of that tier; the ``remote``
backend (:mod:`repro.shuffle.backends.remote`) drives it and issues the
actual network flows.  The pool tracks:

* which physical hosts act as shuffle workers, per datacenter
  (placement is deterministic: the lexicographically first live hosts);
* per-worker load (assigned bytes) for least-loaded shard assignment
  and per-worker memory buffers (bytes past the buffer are *spilled* —
  charged disk time and counted, never silently dropped);
* the replica map: for every (shuffle_id, map_index) the primary
  serving host plus the extra copies (the
  :class:`~repro.shuffle.stores.ShuffleStore` holds exactly one copy,
  so replica payloads live here until promotion re-registers them).

Every iteration is over sorted keys, so pool decisions depend only on
the byte distribution — never on dict order — and replay identically
under ``REPRO_SANITIZE``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.topology import Topology
    from repro.shuffle.stores import ShuffleShard

# (shuffle_id, map_index): the unit of replication.
OutputKey = Tuple[int, int]

# Workers pinned per datacenter, and the per-worker memory buffer before
# accepted bytes spill to local disk.
WORKERS_PER_DATACENTER = 1
WORKER_BUFFER_BYTES = 64e6


class ShuffleWorker:
    """One dedicated shuffle worker pinned to a physical host."""

    __slots__ = ("host", "datacenter", "assigned_bytes", "spilled_bytes")

    def __init__(self, host: str, datacenter: str) -> None:
        self.host = host
        self.datacenter = datacenter
        self.assigned_bytes = 0.0
        self.spilled_bytes = 0.0

    def accept(self, size_bytes: float) -> float:
        """Account ``size_bytes`` stored here; returns the portion that
        overflowed the memory buffer and spilled to local disk."""
        before = self.assigned_bytes
        self.assigned_bytes = before + size_bytes
        over = self.assigned_bytes - WORKER_BUFFER_BYTES
        if over <= 0:
            return 0.0
        spill = min(size_bytes, over)
        self.spilled_bytes += spill
        return spill

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShuffleWorker({self.host}, {self.assigned_bytes / 1e6:.1f}MB)"
        )


class ShuffleWorkerPool:
    """Placement, load-aware assignment, and replica bookkeeping."""

    __slots__ = ("topology", "_workers", "_primary", "_replicas")

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        # host -> ShuffleWorker (insertion order is provision order, but
        # every selection below sorts explicitly).
        self._workers: Dict[str, ShuffleWorker] = {}
        self._primary: Dict[OutputKey, str] = {}
        # key -> {replica host -> shard payloads}; primary excluded.
        self._replicas: Dict[OutputKey, Dict[str, List[ShuffleShard]]] = {}

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
        self, primary_host: str, count: int, exclude: Tuple[str, ...] = ()
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
    # Replica bookkeeping
    # ------------------------------------------------------------------
    def record_primary(self, key: OutputKey, host: str) -> None:
        self._primary[key] = host
        replicas = self._replicas.get(key)
        if replicas is not None:
            replicas.pop(host, None)

    def record_replica(
        self, key: OutputKey, host: str, shards: List[ShuffleShard]
    ) -> None:
        self._replicas.setdefault(key, {})[host] = shards

    def primary(self, key: OutputKey) -> Optional[str]:
        return self._primary.get(key)

    def replica_hosts(self, key: OutputKey) -> List[str]:
        return sorted(self._replicas.get(key, {}))

    def replica_shards(
        self, key: OutputKey, host: str
    ) -> List[ShuffleShard]:
        return self._replicas[key][host]

    def copy_count(self, key: OutputKey) -> int:
        """Live copies of ``key``: the primary plus its replicas."""
        return (1 if key in self._primary else 0) + len(
            self._replicas.get(key, {})
        )

    def drop_shuffle(self, shuffle_id: int) -> None:
        for key in [k for k in self._primary if k[0] == shuffle_id]:
            del self._primary[key]
        for key in [k for k in self._replicas if k[0] == shuffle_id]:
            del self._replicas[key]

    # ------------------------------------------------------------------
    # Worker loss
    # ------------------------------------------------------------------
    def on_worker_lost(
        self, host: str
    ) -> Tuple[List[OutputKey], List[OutputKey]]:
        """Forget ``host`` and report the damage.

        Returns ``(orphaned, degraded)``: keys whose *primary* copy was
        on the host (a surviving replica must be promoted, or the key
        falls back to lineage) and keys that merely lost one replica
        (re-replication restores the factor).  Both lists are sorted.
        """
        self._workers.pop(host, None)
        orphaned = sorted(
            key for key, primary in self._primary.items() if primary == host
        )
        for key in orphaned:
            del self._primary[key]
        degraded = []
        for key in sorted(self._replicas):
            replicas = self._replicas[key]
            if host in replicas:
                del replicas[host]
                if key not in orphaned:
                    degraded.append(key)
            if not replicas:
                del self._replicas[key]
        return orphaned, degraded
