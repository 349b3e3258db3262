"""Shared fixtures: small clusters and fast configurations for tests."""

from __future__ import annotations

import pytest

from repro.cluster.builder import ClusterSpec
from repro.cluster.context import ClusterContext
from repro.config import ShuffleConfig, SimulationConfig
from repro.network.topology import GBPS, MBPS
from repro.rdd.dependencies import ShuffleDependency
from repro.rdd.transferred import TransferredRDD


def small_spec(
    datacenters=("dc-a", "dc-b"),
    workers_per_datacenter: int = 2,
    inter_dc_bandwidth: float = 100 * MBPS,
    gateway_bandwidth=None,
) -> ClusterSpec:
    """A tiny deterministic cluster for unit/integration tests."""
    return ClusterSpec(
        datacenters=tuple(datacenters),
        workers_per_datacenter=workers_per_datacenter,
        intra_dc_bandwidth=1 * GBPS,
        inter_dc_bandwidth=inter_dc_bandwidth,
        gateway_bandwidth=gateway_bandwidth,
        driver_datacenter=datacenters[0],
    )


def quiet_config(
    push: bool = False,
    seed: int = 0,
    backend: str | None = None,
    **overrides,
) -> SimulationConfig:
    """Deterministic config: no jitter, no failures."""
    if backend is None:
        backend = "push_aggregate" if push else "fetch"
    shuffle = ShuffleConfig(backend=backend)
    return SimulationConfig(seed=seed, shuffle=shuffle, jitter=None, **overrides)


def make_context(
    push: bool = False,
    seed: int = 0,
    spec=None,
    backend: str | None = None,
    **overrides,
):
    return ClusterContext(
        spec if spec is not None else small_spec(),
        quiet_config(push=push, seed=seed, backend=backend, **overrides),
    )


@pytest.fixture
def fetch_context():
    """A small fetch-based (baseline Spark) cluster context."""
    return make_context(push=False)


@pytest.fixture
def push_context():
    """A small Push/Aggregate (AggShuffle) cluster context."""
    return make_context(push=True)


def count_inserted_transfers(final_rdd) -> int:
    """How many shuffle parents in ``final_rdd``'s lineage are
    ``TransferredRDD``s."""
    return sum(
        isinstance(dep, ShuffleDependency) and isinstance(dep.parent, TransferredRDD)
        for rdd in final_rdd.lineage()
        for dep in rdd.dependencies
    )
