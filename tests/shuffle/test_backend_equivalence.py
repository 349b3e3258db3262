"""Every registered backend computes identical results (satellite #2).

A shuffle backend may change *where* data moves and *when*, but never
what reducers compute.  These tests run wordcount, sort, and pagerank
with a fixed seed under every backend-only scheme in the registry and
require byte-identical action results against the Spark (fetch)
baseline.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import (
    ExperimentPlan,
    clear_data_cache,
    run_workload_once,
)
from repro.experiments.schemes import SCHEME_REGISTRY, Scheme, scheme_spec
from tests.conftest import small_spec
from tests.integration.test_paper_properties import (
    small_pagerank,
    small_sort,
    small_wordcount,
)

# Schemes that are purely a shuffle backend (no input preprocessing):
# exactly these must be output-equivalent given identical inputs.
BACKEND_SCHEMES = tuple(
    spec.scheme for spec in SCHEME_REGISTRY if spec.preprocess is None
)


@pytest.fixture(autouse=True)
def _clean_cache():
    clear_data_cache()
    yield
    clear_data_cache()


def _plan():
    return ExperimentPlan(
        cluster=small_spec(
            datacenters=("dc-a", "dc-b", "dc-c"),
            workers_per_datacenter=2,
        ),
        seeds=(0,),
        keep_action_results=True,
    )


def _result(workload_factory, scheme, seed=0):
    return run_workload_once(
        workload_factory(), scheme, seed, _plan()
    ).action_result


def test_backend_schemes_cover_all_backends():
    covered = {scheme_spec(s).backend for s in BACKEND_SCHEMES}
    assert covered == {
        "fetch", "push_aggregate", "pre_merge", "remote", "blob"
    }


@pytest.mark.parametrize(
    "workload_factory",
    [small_wordcount, small_sort, small_pagerank],
    ids=["wordcount", "sort", "pagerank"],
)
@pytest.mark.parametrize(
    "scheme",
    [s for s in BACKEND_SCHEMES if s is not Scheme.SPARK],
    ids=lambda s: s.value,
)
def test_backend_outputs_identical_to_fetch_baseline(
    workload_factory, scheme
):
    baseline = _result(workload_factory, Scheme.SPARK)
    candidate = _result(workload_factory, scheme)
    assert candidate == baseline


def test_equivalence_holds_across_seeds_for_premerge():
    """The merge relocation must be output-invisible for any weather."""
    for seed in (0, 1, 2):
        baseline = _result(small_wordcount, Scheme.SPARK, seed)
        merged = _result(small_wordcount, Scheme.PREMERGE, seed)
        assert merged == baseline


def test_sorted_output_order_is_preserved_exactly():
    """Sort is the sharpest equality: any reordering of reduce input
    that leaked into the output would flip record order."""
    baseline = _result(small_sort, Scheme.SPARK)
    for scheme in BACKEND_SCHEMES:
        assert _result(small_sort, scheme) == baseline
