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
from repro.shuffle.backends import backend_class, backend_names
from tests.conftest import make_context, small_spec


def _assert_counters_match_monitor(context) -> None:
    """The three equalities above (and ledger == monitor), as the
    campaign's own oracle states them: flows still in flight when the
    job returned — a crashed attempt's fetch that nothing cancels —
    were charged at issue but reach the monitor only on completion, so
    ``reconcile_run`` leaves them out of both sides."""
    assert reconcile_run(context) == []


@settings(max_examples=12, deadline=None)
@given(
    backend=st.sampled_from(tuple(backend_names())),
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
    backend=st.sampled_from(tuple(backend_names())),
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


@pytest.mark.parametrize("backend", tuple(backend_names()))
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
        for spec in SCHEME_REGISTRY.values()
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
    tags = backend_class(backend).flow_tags
    monitor_cross_dc_mb = sum(
        result.cross_dc_by_tag.get(tag, 0.0) for tag in tags
    )
    assert result.shuffle_perf["wan_bytes"] / 1e6 == pytest.approx(
        monitor_cross_dc_mb, rel=1e-9, abs=1e-9
    )
    assert result.shuffle_perf["network_bytes"] >= result.shuffle_perf[
        "wan_bytes"
    ]
