"""The shuffle backend the context binds: registry, config resolution, wiring."""

from __future__ import annotations

import dataclasses
import inspect
from types import SimpleNamespace

import pytest

from repro.config import ShuffleConfig, SimulationConfig, backend_config
from repro.errors import ConfigurationError, FetchFailedError
from repro.shuffle.backends import (
    backend_class,
    backend_names,
    create_backend,
)
from repro.shuffle.backends.fetch import FetchShuffleBackend
from repro.shuffle.backends.pre_merge import PreMergeBackend
from repro.shuffle.backends.push_aggregate import PushAggregateBackend
from repro.shuffle.service import ShuffleBackend
from repro.shuffle.stores import ShuffleShard
from tests.conftest import make_context, small_spec


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
def test_registry_contains_the_three_backends():
    names = backend_names()
    assert "fetch" in names
    assert "push_aggregate" in names
    assert "pre_merge" in names


def test_backend_class_lookup():
    assert backend_class("fetch") is FetchShuffleBackend
    assert backend_class("push_aggregate") is PushAggregateBackend
    assert backend_class("pre_merge") is PreMergeBackend


def test_unknown_backend_raises_with_known_names():
    with pytest.raises(ConfigurationError, match="fetch"):
        create_backend("carrier-pigeon")


def test_create_backend_returns_fresh_instances():
    assert create_backend("fetch") is not create_backend("fetch")


def test_every_backend_advertises_its_contract():
    for name in backend_names():
        cls = backend_class(name)
        assert issubclass(cls, ShuffleBackend)
        assert cls.name == name
        assert cls.scheme_label
        assert cls.flow_tags


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------
def test_default_backend_is_fetch():
    assert ShuffleConfig().backend == "fetch"
    assert backend_config("fetch").shuffle == ShuffleConfig()


def test_unknown_backend_rejected_at_validation():
    config = SimulationConfig(shuffle=ShuffleConfig(backend="nope"))
    with pytest.raises(ConfigurationError, match="nope"):
        config.validate()


def test_backend_config_builds_a_runnable_simulation_config():
    config = backend_config("pre_merge")
    config.validate()
    assert config.shuffle.backend == "pre_merge"


# ---------------------------------------------------------------------------
# Scheme registry (satellite: no AGGSHUFFLE branching)
# ---------------------------------------------------------------------------
def test_scheme_registry_enumerates_registered_backends():
    from repro.experiments.schemes import (
        SCHEME_REGISTRY,
        Scheme,
        all_schemes,
        scheme_spec,
    )

    labels = {backend_class(name).scheme_label for name in backend_names()}
    covered = {spec.scheme.value for spec in SCHEME_REGISTRY.values()}
    assert labels <= covered
    assert all_schemes() == tuple(SCHEME_REGISTRY)
    assert scheme_spec(Scheme.PREMERGE).backend == "pre_merge"
    assert scheme_spec(Scheme.AGGSHUFFLE).backend == "push_aggregate"


def test_paper_schemes_preserved_and_registry_driven():
    from repro.experiments.schemes import (
        PAPER_SCHEMES,
        SCHEME_REGISTRY,
        Scheme,
    )

    assert PAPER_SCHEMES == (
        Scheme.SPARK, Scheme.CENTRALIZED, Scheme.AGGSHUFFLE
    )
    assert all(SCHEME_REGISTRY[s].paper for s in PAPER_SCHEMES)


def test_preprocess_schemes_ride_on_the_fetch_backend():
    from repro.experiments.schemes import Scheme, scheme_spec

    for scheme in (Scheme.CENTRALIZED, Scheme.IRIDIUM):
        spec = scheme_spec(scheme)
        assert spec.backend == "fetch"
        assert spec.preprocess is not None
        assert spec.preprocess_stage_name


def test_config_for_scheme_uses_registry_backend():
    from repro.experiments.schemes import Scheme, config_for_scheme
    from repro.workloads import WORDCOUNT

    for scheme, backend in (
        (Scheme.SPARK, "fetch"),
        (Scheme.AGGSHUFFLE, "push_aggregate"),
        (Scheme.PREMERGE, "pre_merge"),
        (Scheme.CENTRALIZED, "fetch"),
    ):
        config = config_for_scheme(scheme, WORDCOUNT, seed=0)
        assert config.shuffle.backend == backend


def test_dag_scheduler_has_no_strategy_branches():
    """Acceptance criterion: zero scheme-conditional branches left."""
    from repro.scheduler import dag_scheduler

    source = inspect.getsource(dag_scheduler)
    for marker in ("auto_aggregate", "push_based", "AGGSHUFFLE", "Scheme"):
        assert marker not in source


def test_backends_compose_the_shared_data_path():
    """One data path: flows are issued (and retried) only inside the
    base-class move primitive, and no backend module re-implements the
    reduce read, the shard snapshot or the relocation fix-up."""
    from pathlib import Path

    import repro.shuffle

    package = Path(repro.shuffle.__file__).parent
    sources = {
        path.relative_to(package).as_posix(): path.read_text()
        for path in sorted(package.rglob("*.py"))
    }

    def occurrences(needle):
        return {
            name: text.count(needle)
            for name, text in sources.items() if needle in text
        }

    assert occurrences("fabric.transfer(") == {"service.py": 1}
    assert occurrences("transfer_with_retry(") == {"service.py": 1}
    assert occurrences("range(len(status.shard_sizes))") == {"service.py": 1}
    assert occurrences("map_outputs_registered -= 1") == {}
    assert not any(
        "def shuffle_read" in text
        for name, text in sources.items() if name.startswith("backends/")
    )


# ---------------------------------------------------------------------------
# Service wiring
# ---------------------------------------------------------------------------
def test_context_owns_a_service_matching_its_config():
    context = make_context(push=False)
    assert context.shuffle_service.name == "fetch"
    push = make_context(push=True)
    assert push.shuffle_service.name == "push_aggregate"


@pytest.mark.parametrize("backend", backend_names())
def test_incomplete_shuffle_read_fails_before_moving_bytes(backend):
    """Spark's FetchFailed check: a reducer whose shuffle is missing a
    map output raises before it issues a flow or counts a read, so the
    DAG scheduler recovers from lineage instead of reading truncated
    input — whichever backend serves the read."""
    context = make_context(backend=backend)
    service = context.shuffle_service
    workers = context.spec.worker_names()
    service.register_shuffle(7, 2)
    service.register_map_output(7, 0, workers[0], [ShuffleShard([("k", 1)], 1e6)])
    runtime = SimpleNamespace(
        host=workers[-1],
        tenant="",
        task=SimpleNamespace(recovery=False),
        shuffle_bytes_fetched=0.0,
        bytes_read_local=0.0,
    )
    read = service.shuffle_read(runtime, SimpleNamespace(shuffle_id=7), 0)
    with pytest.raises(FetchFailedError) as raised:
        next(read)
    assert raised.value.shuffle_id == 7
    assert service.counters.reduce_reads == 0
    assert service.counters.blocks_fetched == 0
    assert context.fabric.perf.total_flows == 0


def test_push_backend_prepare_job_inserts_transfers():
    from repro.core.transfer_injection import count_inserted_transfers

    context = make_context(push=True)
    rdd = context.parallelize([("a", 1), ("b", 2)], 2).reduce_by_key(
        lambda a, b: a + b, num_partitions=2
    )
    assert count_inserted_transfers(rdd) == 0
    prepared = context.shuffle_service.prepare_job(rdd)
    assert count_inserted_transfers(prepared) == 1


def test_fetch_backend_prepare_job_is_identity():
    from repro.core.transfer_injection import count_inserted_transfers

    context = make_context(push=False)
    rdd = context.parallelize([("a", 1), ("b", 2)], 2).reduce_by_key(
        lambda a, b: a + b, num_partitions=2
    )
    prepared = context.shuffle_service.prepare_job(rdd)
    assert prepared is rdd
    assert count_inserted_transfers(prepared) == 0


def _premerge_context():
    return make_context(
        spec=small_spec(
            datacenters=("dc-a", "dc-b", "dc-c"), workers_per_datacenter=2
        ),
        backend="pre_merge",
    )


def test_premerge_consolidates_map_output_per_datacenter():
    context = _premerge_context()
    rdd = context.parallelize(
        [(f"k{i}", 1) for i in range(60)], 6
    ).reduce_by_key(lambda a, b: a + b)
    rdd.collect()
    counters = context.shuffle_service.counters
    assert counters.merge_rounds > 0
    assert counters.merge_fan_in > 0
    # After merging, map outputs live on at most one host per DC, so a
    # reducer opens at most one remote flow per source host.
    assert counters.blocks_fetched <= counters.merge_rounds * (
        len(context.topology.datacenters)
    ) * rdd.num_partitions


def test_premerge_fetches_fewer_blocks_than_fetch_backend():
    def run(backend):
        context = make_context(
            spec=small_spec(
                datacenters=("dc-a", "dc-b", "dc-c"),
                workers_per_datacenter=2,
            ),
            backend=backend,
        )
        rdd = context.parallelize(
            [(f"k{i}", i) for i in range(120)], 6
        ).group_by_key()
        result = rdd.collect()
        return context.shuffle_service.counters, result

    fetch_counters, fetch_result = run("fetch")
    merge_counters, merge_result = run("pre_merge")
    assert merge_counters.blocks_fetched < fetch_counters.blocks_fetched
    # And the reduce outputs are identical, record for record.
    assert merge_result == fetch_result


def test_counters_flow_through_run_result():
    from repro.experiments.runner import ExperimentPlan, run_workload_once
    from repro.experiments.schemes import Scheme
    from repro.workloads import WordCount, WORDCOUNT
    from repro.workloads.text_gen import TextGenerator

    workload = WordCount(
        spec=dataclasses.replace(
            WORDCOUNT, input_partitions=4, records_per_partition=2
        ),
        generator=TextGenerator(vocabulary_buckets=50, tokens_per_document=200),
    )
    plan = ExperimentPlan(
        cluster=small_spec(
            datacenters=("dc-a", "dc-b", "dc-c"), workers_per_datacenter=2
        ),
        seeds=(0,),
    )
    result = run_workload_once(workload, Scheme.PREMERGE, 0, plan)
    assert result.backend == "pre_merge"
    assert result.shuffle_perf["map_outputs_registered"] > 0
    assert result.shuffle_perf["merge_rounds"] > 0
    assert result.shuffle_perf["network_bytes"] > 0
