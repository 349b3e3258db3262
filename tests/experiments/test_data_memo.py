"""The data-plane memo: a warm cell is the cold cell, minus the work.

Every cell of an experiment runs the same RDD program over the same
cached dataset, so the first one to take a pure data-plane step stores
its result in the dataset's :class:`~repro.rdd.memo.DataMemo` and the
rest are handed that object.  Nothing a cell measures may depend on
which of the two it was: these tests run each workload cold (after
``clear_data_cache()``) and warm and compare whole ``RunResult``s with
``==``; they pin the hit / miss counts so a memo that silently stopped
matching fails; and they plant the two aliasing bugs sharing makes
possible to show that the sanitizer's oracle catches both.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sanitizer import InvariantViolation, sanitized
from repro.cluster.context import ClusterContext
from repro.config import FailureConfig, SimulationConfig
from repro.experiments import runner
from repro.experiments.runner import (
    ExperimentPlan,
    clear_data_cache,
    data_memo_counts,
    generated_input,
    run_workload_once,
)
from repro.experiments.schemes import Scheme, all_schemes, config_for_scheme
from repro.failures.chaos import ChaosEvent, ChaosSchedule
from repro.rdd.aggregator import Aggregator
from repro.rdd.memo import DataMemo
from repro.rdd.partitioner import HashPartitioner
from repro.rdd.rdd import flat_map_records, map_records
from repro.rdd.shuffled import shard_records, sort_records
from repro.rdd.size_estimator import Partition, SizedRecord, SizeEstimator
from repro.workloads import (
    NAIVE_BAYES,
    PAGERANK,
    SORT,
    TERASORT,
    WORDCOUNT,
    NaiveBayes,
    PageRank,
    Sort,
    TeraSort,
    WordCount,
    merge_counts,
)
from repro.workloads.text_gen import TextGenerator
from tests.conftest import small_spec


@pytest.fixture(autouse=True)
def _clean_cache():
    clear_data_cache()
    yield
    clear_data_cache()


def _small(spec, **changes):
    return dataclasses.replace(spec, input_partitions=6, **changes)


# Table I, scaled down (one instance each: a workload's functions are
# memo keys, and a fresh instance would bring fresh ones).
WORKLOADS = {
    "wordcount": lambda: WordCount(
        spec=_small(WORDCOUNT),
        generator=TextGenerator(vocabulary_buckets=100, tokens_per_document=400),
    ),
    "sort": lambda: Sort(spec=_small(SORT, records_per_partition=20)),
    "terasort": lambda: TeraSort(spec=_small(TERASORT, records_per_partition=20)),
    "pagerank": lambda: PageRank(spec=_small(PAGERANK, records_per_partition=30)),
    "naivebayes": lambda: NaiveBayes(
        spec=_small(NAIVE_BAYES),
        generator=TextGenerator(vocabulary_buckets=80, tokens_per_document=300),
    ),
}


def _plan(base_config=None):
    return ExperimentPlan(
        cluster=small_spec(
            datacenters=("dc-a", "dc-b", "dc-c"), workers_per_datacenter=2
        ),
        seeds=(0,),
        base_config=base_config,
        keep_action_results=True,
    )


def _comparable(result):
    """Every field of a RunResult but the fabric's wall-clock one:
    duration, bytes by tag, stage spans, fabric / shuffle / recovery /
    health counters, the action result itself."""
    data = dataclasses.asdict(result)
    data["fabric_perf"].pop("solver_seconds")
    return data


def _cold_then_warm(workload, scheme, plan):
    """One cell on an empty cache, then the same cell again."""
    clear_data_cache()
    cold = run_workload_once(workload, scheme, 0, plan)
    after_cold = data_memo_counts()
    warm = run_workload_once(workload, scheme, 0, plan)
    return cold, after_cold, warm, data_memo_counts()


# ----------------------------------------------------------------------
# Cold == warm, for every workload x scheme
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_warm_cells_equal_cold_cells_across_a_matrix_row(name):
    workload = WORKLOADS[name]()
    plan = _plan()
    cold = {}
    for scheme in all_schemes():
        clear_data_cache()
        cold[scheme] = _comparable(run_workload_once(workload, scheme, 0, plan))
        counts = data_memo_counts()
        assert counts["misses"] == counts["entries"] > 0
    # One row, one memo: only the first scheme computes the fetch-side
    # steps; each later one finds them and adds fewer than it found.
    clear_data_cache()
    first_misses = 0
    for scheme in all_schemes():
        before = data_memo_counts()
        assert _comparable(run_workload_once(workload, scheme, 0, plan)) == cold[scheme]
        after = data_memo_counts()
        if not first_misses:
            first_misses = after["misses"]
            continue
        assert after["hits"] > before["hits"]
        assert after["misses"] - before["misses"] < first_misses
    # A second pass over the row only reads.
    filled = data_memo_counts()
    for scheme in all_schemes():
        assert _comparable(run_workload_once(workload, scheme, 0, plan)) == cold[scheme]
    again = data_memo_counts()
    assert (again["misses"], again["entries"]) == (filled["misses"], filled["entries"])
    assert again["hits"] >= filled["hits"] + filled["misses"]


# ----------------------------------------------------------------------
# Under failures: retried reducers and a mid-job executor crash
# ----------------------------------------------------------------------
_FAULTS = {
    "reducer-failures": SimulationConfig(
        failures=FailureConfig(
            reducer_failure_probability=0.6, max_injected_failures_per_task=2
        )
    ),
    "mid-job-crash": SimulationConfig().with_chaos(
        ChaosSchedule((ChaosEvent(at=6.0, kind="crash", target="dc-b-w0"),))
    ),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
@pytest.mark.parametrize(
    "scheme", (Scheme.SPARK, Scheme.AGGSHUFFLE, Scheme.REMOTE), ids=lambda s: s.value
)
@pytest.mark.parametrize("name", ("wordcount", "pagerank", "terasort"))
def test_warm_cell_equals_cold_cell_under_faults(name, scheme, fault):
    cold, after_cold, warm, after_warm = _cold_then_warm(
        WORKLOADS[name](), scheme, _plan(_FAULTS[fault])
    )
    if fault == "reducer-failures":
        assert cold.injected_failures_total > 0
    else:
        assert cold.chaos_events_applied == 1
        assert cold.recovery["executor_crashes"] == 1
    assert _comparable(cold) == _comparable(warm)
    assert after_warm["misses"] == after_cold["misses"]
    assert after_warm["hits"] > after_cold["hits"]


# ----------------------------------------------------------------------
# Another run seed draws another range partitioner
# ----------------------------------------------------------------------
def _entries_by_step():
    counts = {}
    for memo in runner._DATA_CACHE.values():
        for step, *_args in memo.table:
            counts[step] = counts.get(step, 0) + 1
    return counts


@pytest.mark.parametrize("name", ("sort", "terasort"))
def test_second_run_seed_misses_the_split_and_hits_the_narrow_ops(name):
    workload = WORKLOADS[name]()
    plan = _plan()
    cold_seed_1 = _comparable(run_workload_once(workload, Scheme.SPARK, 1, plan))
    clear_data_cache()

    run_workload_once(workload, Scheme.SPARK, 0, plan)
    one_seed = _entries_by_step()
    seed_1 = run_workload_once(workload, Scheme.SPARK, 1, plan)
    two_seeds = _entries_by_step()
    # Same dataset, same map function: the narrow op is not run again ...
    assert two_seeds[map_records] == one_seed[map_records] == 6
    # ... but the sampled boundaries differ, so the split and the sort
    # downstream of it are new keys.
    assert two_seeds[shard_records] == 2 * one_seed[shard_records] == 12
    assert two_seeds[sort_records] == 2 * one_seed[sort_records]
    assert _comparable(seed_1) == cold_seed_1


# ----------------------------------------------------------------------
# Jobs without a dataset-cache root never enter the memo
# ----------------------------------------------------------------------
def test_parallelize_and_hand_written_files_create_no_entry(monkeypatch):
    workload = WORKLOADS["sort"]()
    generated_input(workload, 0)  # a cached dataset exists; it stays idle

    def forbidden(*_args, **_kwargs):
        raise AssertionError("a job without a cache root reached the memo")

    monkeypatch.setattr(DataMemo, "derive", forbidden)
    monkeypatch.setattr(Partition, "__init__", forbidden)
    for scheme in (Scheme.SPARK, Scheme.AGGSHUFFLE):
        config = config_for_scheme(scheme, workload.spec, 0)
        context = ClusterContext(small_spec(), config)
        pairs = [(f"k{i % 7}", SizedRecord(i, 100.0)) for i in range(40)]
        driver = context.parallelize(pairs, 4).reduce_by_key(merge_counts, 3)
        assert len(driver.collect()) == 7
        context.write_input_file("/in", [pairs[i::4] for i in range(4)])
        on_disk = context.text_file("/in").map(lambda kv: kv).group_by_key(2).cache()
        assert sorted(k for k, _ in on_disk.collect()) == sorted(
            {k for k, _ in pairs}
        )
        assert on_disk.count() == 7
        context.shutdown()
    assert data_memo_counts() == {"hits": 0, "misses": 0, "entries": 0}


# ----------------------------------------------------------------------
# The aliasing oracle (sanitizer on)
# ----------------------------------------------------------------------
def test_sanitized_run_is_identical_and_rechecks_every_hit():
    workload = WORKLOADS["pagerank"]()
    plan = _plan()
    plain = [
        _comparable(run_workload_once(workload, scheme, 0, plan))
        for scheme in (Scheme.SPARK, Scheme.AGGSHUFFLE)
    ]
    counts = data_memo_counts()
    clear_data_cache()
    with sanitized() as sanitizer:
        checked = [
            _comparable(run_workload_once(workload, scheme, 0, plan))
            for scheme in (Scheme.SPARK, Scheme.AGGSHUFFLE)
        ]
    assert checked == plain
    assert data_memo_counts() == counts
    assert sanitizer.checks["memo"] == counts["hits"] + counts["misses"] > 0


def test_altered_stored_record_trips_the_oracle():
    workload = WORKLOADS["wordcount"]()
    plan = _plan()
    run_workload_once(workload, Scheme.SPARK, 0, plan)
    (memo,) = runner._DATA_CACHE.values()
    stored = next(
        found for (step, *_), found in memo.table.items() if step is flat_map_records
    )
    key, value = stored[0]
    stored[0] = (key, SizedRecord(value.payload + 1, value.natural_size))
    # Unnoticed without the sanitizer: that is what sharing costs ...
    run_workload_once(workload, Scheme.SPARK, 0, plan)
    # ... and caught by the first sanitized cell that reads the entry.
    with sanitized():
        with pytest.raises(InvariantViolation, match=r"flat_map_records\(input partition \d"):
            run_workload_once(workload, Scheme.SPARK, 0, plan)


def test_altered_byte_total_trips_the_oracle():
    workload = WORKLOADS["sort"]()
    plan = _plan()
    run_workload_once(workload, Scheme.SPARK, 0, plan)
    (memo,) = runner._DATA_CACHE.values()
    shards = next(
        found for (step, *_), found in memo.table.items() if step is shard_records
    )
    assert shards[0].summed is not None  # sized when the shard was written
    shards[0].summed += 1.0
    with sanitized():
        with pytest.raises(InvariantViolation, match="byte totals"):
            run_workload_once(workload, Scheme.SPARK, 0, plan)


def test_function_mutating_its_input_trips_the_oracle():
    """A map function that edits the record it is handed changes the
    dataset every other cell reads; the sanitized cell refuses it at
    once, before a second cell can compute on the damage."""
    workload = WORKLOADS["sort"]()
    partitions = generated_input(workload, 0)
    before = [value.payload for _key, value in partitions[0]]

    def stamp(record):
        record[1].payload = "seen"
        return record

    def job():
        context = ClusterContext(
            small_spec(), config_for_scheme(Scheme.SPARK, workload.spec, 0)
        )
        workload.install(context, partitions)
        try:
            return context.text_file(workload.input_path).map(stamp).count()
        finally:
            context.shutdown()

    with sanitized():
        with pytest.raises(InvariantViolation, match="stamp.*in place"):
            job()
    assert [value.payload for _key, value in partitions[0]] != before


# ----------------------------------------------------------------------
# The memo's own contract
# ----------------------------------------------------------------------
def test_hit_returns_the_object_and_floats_the_miss_produced():
    memo = DataMemo([[("a", SizedRecord(1, 10.5)), ("b", SizedRecord(2, 0.1))]])
    (root,) = memo.partitions
    double = lambda kv: (kv[0], SizedRecord(kv[1].payload * 2, kv[1].natural_size))  # noqa: E731
    first = memo.derive(map_records, root, double)
    assert type(first) is Partition and first.origin == (map_records, root, double)
    assert memo.derive(map_records, root, double) is first
    # Another function object is another key, even with the same code.
    other = memo.derive(map_records, root, lambda kv: double(kv))
    assert other is not first and other == first
    assert (memo.hits, memo.misses, len(memo.table)) == (1, 2, 2)
    # Sized once: the second estimate reads the float the first computed.
    estimator = SizeEstimator(scale_factor=3.0)
    plain = list(first)
    assert estimator.estimate(first) == estimator.estimate(plain)
    assert estimator.estimate_walked(first) == estimator.estimate_walked(plain)
    first.summed, first.walked = 1.0, 2.0  # prove the cached totals are what is read
    assert estimator.estimate(first) == 3.0
    assert estimator.estimate_walked(first) == 6.0


def test_partition_pickles_as_its_records_only():
    import pickle

    memo = DataMemo([[("a", 1)]])
    memo.derive(map_records, memo.partitions[0], lambda kv: kv)  # unpicklable key
    clone = pickle.loads(pickle.dumps(memo.partitions))
    assert clone == [[("a", 1)]] and type(clone[0]) is list


def test_aggregators_from_the_same_functions_are_one_key():
    assert Aggregator.from_reduce_function(merge_counts) == (
        Aggregator.from_reduce_function(merge_counts)
    )
    assert Aggregator.group_by_key() == Aggregator.group_by_key()
    assert Aggregator.group_by_key() != Aggregator.from_reduce_function(merge_counts)
    assert len({Aggregator.group_by_key(), Aggregator.group_by_key()}) == 1


def test_merging_combiners_leaves_the_adopted_one_alone():
    """``combine_combiners`` adopts the first combiner it sees for a key —
    a list that belongs to an input record."""
    records = [("k", [1]), ("k", [2]), ("j", [3])]
    merged = Aggregator.group_by_key().combine_combiners(records)
    assert merged == [("k", [1, 2]), ("j", [3])]
    assert records == [("k", [1]), ("k", [2]), ("j", [3])]


@settings(max_examples=100, deadline=None)
@given(
    records=st.lists(
        st.tuples(st.integers(0, 12), st.floats(-1e6, 1e6, allow_nan=False)),
        max_size=60,
    ),
    reducers=st.integers(1, 5),
    grouped=st.booleans(),
)
def test_combine_then_split_equals_split_then_combine(records, reducers, grouped):
    """What lets a pre-combined transfer's shuffle write (§IV-C-3) ask
    the memo for the fetch path's shards: float for float, in order."""
    aggregator = (
        Aggregator.group_by_key()
        if grouped
        else Aggregator.from_reduce_function(lambda a, b: a + b)
    )
    partitioner = HashPartitioner(reducers)
    combined = aggregator.combine_values(records)
    assert shard_records(combined, partitioner, aggregator, True) == (
        shard_records(records, partitioner, aggregator, False)
    )
