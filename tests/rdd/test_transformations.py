"""Narrow transformations: results match plain-Python equivalents.

Every test runs a real job on a small simulated cluster (both shuffle
mechanisms where relevant) and compares against the obvious Python
computation.
"""


from tests.conftest import make_context


def install(context, partitions, path="/in"):
    context.write_input_file(path, partitions)
    return context.text_file(path)


def test_text_file_partitions_match_blocks(fetch_context):
    rdd = install(fetch_context, [[1, 2], [3], [4, 5]])
    assert rdd.num_partitions == 3


def test_collect_preserves_partition_order(fetch_context):
    rdd = install(fetch_context, [[1, 2], [3], [4, 5]])
    assert rdd.collect() == [1, 2, 3, 4, 5]


def test_map(fetch_context):
    rdd = install(fetch_context, [[1, 2], [3, 4]])
    assert rdd.map(lambda x: x * 10).collect() == [10, 20, 30, 40]


def test_flat_map(fetch_context):
    rdd = install(fetch_context, [["ab", "c"], ["de"]])
    assert rdd.flat_map(list).collect() == ["a", "b", "c", "d", "e"]


def test_chained_transformations(fetch_context):
    rdd = install(fetch_context, [list(range(6)), list(range(6, 12))])
    result = (
        rdd.map(lambda x: x + 1)
        .flat_map(lambda x: [x] if x % 3 == 0 else [])
        .map(lambda x: x * x)
        .collect()
    )
    expected = [(x + 1) ** 2 for x in range(12) if (x + 1) % 3 == 0]
    assert result == expected


def test_map_values(fetch_context):
    rdd = install(fetch_context, [[("a", 1), ("b", 2)]])
    assert rdd.map_values(lambda v: v * 100).collect() == [
        ("a", 100), ("b", 200),
    ]


def test_save_action_writes_dfs_files(fetch_context):
    rdd = install(fetch_context, [[1, 2], [3]])
    rdd.map(lambda x: x).save_as_file("/out")
    dfs = fetch_context.dfs
    blocks = [dfs.file_blocks(f"/out/part-0000{i}") for i in (0, 1)]
    assert [dfs.read_block(b[0]).records for b in blocks] == [[1, 2], [3]]


def test_parallelize_round_trips(fetch_context):
    rdd = fetch_context.parallelize(list(range(10)), num_slices=3)
    assert rdd.num_partitions == 3
    assert sorted(rdd.collect()) == list(range(10))


def test_cache_reuses_partitions(fetch_context):
    rdd = install(fetch_context, [[1, 2], [3]]).map(lambda x: x + 1).cache()
    first = rdd.map(lambda x: x).collect()
    assert fetch_context.cache.entry_count == 2
    second = rdd.map(lambda x: x * 2).collect()
    assert first == [2, 3, 4]
    assert second == [4, 6, 8]
    assert fetch_context.cache.hits >= 2


def test_lineage_lists_ancestors_parents_first(fetch_context):
    base = install(fetch_context, [[1]])
    mapped = base.map(lambda x: x)
    flattened = mapped.flat_map(lambda x: [x])
    lineage = flattened.lineage()
    assert [r.rdd_id for r in lineage] == [
        base.rdd_id, mapped.rdd_id, flattened.rdd_id,
    ]


def test_results_identical_under_push_shuffle():
    for push in (False, True):
        context = make_context(push=push)
        rdd = install(context, [[1, 2], [3, 4]])
        assert rdd.map(lambda x: x * 2).collect() == [2, 4, 6, 8]
        context.shutdown()
