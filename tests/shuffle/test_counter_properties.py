"""Property: backend counters agree with the traffic monitor (#3).

Every byte a backend claims to have moved must correspond to a flow the
network fabric actually carried (and vice versa): for any workload shape
and any backend,

* ``wan_bytes + intra_dc_bytes`` equals the monitor's total over the
  backend's declared ``flow_tags``;
* ``wan_bytes`` equals the monitor's *cross-datacenter* total over the
  same tags;
* the per-shuffle attribution sums to the shuffle-path tags exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sanitizer import reconcile_run
from repro.shuffle.backends import BACKENDS
from tests.conftest import make_context, small_spec


def _assert_counters_match_monitor(context) -> None:
    """The three equalities above, as the campaign's own oracle states
    them.  The counters are views of the monitor, which takes a flow's
    bytes when it lands, so a flow still in flight when the job
    returned — a crashed attempt's fetch that nothing cancels — is on
    no side."""
    assert reconcile_run(context) == []


def test_counters_hold_no_undelivered_bytes_of_an_orphaned_flow():
    """Campaign seed 0, schedule #98 (the corpus's
    ``speculative-orphan-pre-merge``): the job completes while a
    speculative loser's fetch is still in flight.  The counters must not
    hold its undelivered bytes: ``wan_bytes`` equals the monitor's
    cross-DC total over the backend's tags as it stands."""
    from math import fsum
    from pathlib import Path

    from repro.cluster.context import ClusterContext
    from repro.failures import campaign

    artifact = (
        Path(__file__).resolve().parent.parent
        / "failures" / "corpus" / "speculative-orphan-pre-merge.json"
    )
    config = campaign._policy_config("speculate", "pre_merge", 0).with_chaos(
        campaign.load_artifact_schedule(str(artifact))
    )
    context = ClusterContext(campaign.fuzz_cluster_spec(), config)
    rdd = context.parallelize(campaign._fuzz_records(), campaign._FUZZ_SLICES)
    rdd.reduce_by_key(
        campaign._merge, num_partitions=campaign._FUZZ_REDUCERS
    ).collect()
    backend = context.shuffle_service
    assert any(
        flow.tag in backend.flow_tags
        for flow in context.fabric.active_flows()
    )
    cross = fsum(
        context.traffic.cross_dc_by_tag.get(tag, 0.0)
        for tag in backend.flow_tags
    )
    assert backend.perf_snapshot()["wan_bytes"] == cross
    _assert_counters_match_monitor(context)
    context.shutdown()


@settings(max_examples=12, deadline=None)
@given(
    backend=st.sampled_from(tuple(BACKENDS)),
    num_slices=st.integers(min_value=2, max_value=6),
    num_keys=st.integers(min_value=1, max_value=25),
    num_reduces=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=3),
    three_dcs=st.booleans(),
)
def test_counters_equal_monitor_for_reduce_by_key(
    backend, num_slices, num_keys, num_reduces, seed, three_dcs
):
    datacenters = ("dc-a", "dc-b", "dc-c") if three_dcs else ("dc-a", "dc-b")
    context = make_context(
        spec=small_spec(datacenters=datacenters),
        backend=backend,
        seed=seed,
    )
    records = [(f"key-{i % num_keys}", i) for i in range(num_keys * 4)]
    rdd = context.parallelize(records, num_slices).reduce_by_key(
        lambda a, b: a + b, num_partitions=num_reduces
    )
    rdd.collect()
    _assert_counters_match_monitor(context)
    context.shutdown()


@settings(max_examples=8, deadline=None)
@given(
    backend=st.sampled_from(tuple(BACKENDS)),
    num_keys=st.integers(min_value=2, max_value=20),
    seed=st.integers(min_value=0, max_value=2),
)
def test_counters_equal_monitor_for_group_by_key(backend, num_keys, seed):
    """group_by_key has no map-side combine, so shard sizes differ from
    the reduce_by_key case — the equality must hold regardless."""
    context = make_context(
        spec=small_spec(datacenters=("dc-a", "dc-b", "dc-c")),
        backend=backend,
        seed=seed,
    )
    records = [(f"key-{i % num_keys}", f"v{i}") for i in range(num_keys * 3)]
    rdd = context.parallelize(records, 5).group_by_key(num_partitions=3)
    rdd.collect()
    _assert_counters_match_monitor(context)
    context.shutdown()


@pytest.mark.parametrize("backend", tuple(BACKENDS))
def test_counters_equal_monitor_end_to_end(backend):
    """Same invariant through the full experiment harness (DFS input,
    skewed placement, save actions) rather than a bare parallelize."""
    from repro.experiments.runner import (
        ExperimentPlan,
        clear_data_cache,
        run_workload_once,
    )
    from repro.experiments.schemes import SCHEME_REGISTRY

    clear_data_cache()
    scheme = next(
        spec.scheme
        for spec in SCHEME_REGISTRY
        if spec.backend == backend and spec.preprocess is None
    )
    from tests.integration.test_paper_properties import small_wordcount

    plan = ExperimentPlan(
        cluster=small_spec(
            datacenters=("dc-a", "dc-b", "dc-c"), workers_per_datacenter=2
        ),
        seeds=(0,),
    )
    result = run_workload_once(small_wordcount(), scheme, 0, plan)
    clear_data_cache()
    tags = BACKENDS[backend].flow_tags
    monitor_cross_dc_mb = sum(
        result.cross_dc_by_tag.get(tag, 0.0) for tag in tags
    )
    assert result.shuffle_perf["wan_bytes"] / 1e6 == pytest.approx(
        monitor_cross_dc_mb, rel=1e-9, abs=1e-9
    )
    assert result.shuffle_perf["network_bytes"] >= result.shuffle_perf[
        "wan_bytes"
    ]
