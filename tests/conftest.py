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


def run_two_tenant_stream(scheme, jobs: int, seed: int) -> ClusterContext:
    """A saturating two-tenant stream, run to its end; returns the
    context (which holds the fabric)."""
    from repro.experiments.runner import ExperimentPlan
    from repro.experiments.schemes import config_for_scheme
    from repro.scheduler.job_scheduler import run_stream
    from repro.simulation.random_source import RandomSource
    from repro.workloads import workload_by_name
    from repro.workloads.arrivals import (
        ArrivalSpec,
        StreamSpec,
        TenantSpec,
        generate_arrivals,
    )

    cluster = ExperimentPlan().cluster
    spec = StreamSpec(
        arrival=ArrivalSpec("poisson", 600.0, jobs),
        tenants=(TenantSpec("prod", weight=2.0), TenantSpec("batch", weight=1.0)),
        policy="fair",
        max_concurrent=4,
    )
    arrivals = generate_arrivals(
        spec, cluster.datacenters, RandomSource(seed).child("stream")
    )
    config = config_for_scheme(
        scheme, workload_by_name("wordcount").spec, seed, SimulationConfig()
    )
    context = ClusterContext(cluster, config)
    result = run_stream(context, spec, arrivals)
    context.shutdown()
    assert result.jobs_completed == jobs
    return context


def count_inserted_transfers(final_rdd) -> int:
    """How many shuffle parents in ``final_rdd``'s lineage are
    ``TransferredRDD``s."""
    return sum(
        isinstance(dep, ShuffleDependency) and isinstance(dep.parent, TransferredRDD)
        for rdd in final_rdd.lineage()
        for dep in rdd.dependencies
    )
