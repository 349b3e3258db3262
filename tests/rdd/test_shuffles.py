"""Shuffle transformations: correctness under both shuffle mechanisms."""

from collections import Counter, defaultdict

import pytest

from tests.conftest import make_context


PAIR_PARTITIONS = [
    [("a", 1), ("b", 2), ("a", 3)],
    [("c", 4), ("a", 5)],
    [("b", 6), ("d", 7), ("d", 8)],
]


def pair_rdd(context, partitions=None, path="/pairs"):
    context.write_input_file(path, partitions or PAIR_PARTITIONS)
    return context.text_file(path)


@pytest.fixture(params=[False, True], ids=["fetch", "push"])
def context(request):
    ctx = make_context(push=request.param)
    yield ctx
    ctx.shutdown()


def test_reduce_by_key_sums(context):
    result = dict(
        pair_rdd(context).reduce_by_key(lambda a, b: a + b).collect()
    )
    expected = Counter()
    for partition in PAIR_PARTITIONS:
        for key, value in partition:
            expected[key] += value
    assert result == dict(expected)


def test_group_by_key_collects_all_values(context):
    result = {
        key: sorted(values)
        for key, values in pair_rdd(context).group_by_key().collect()
    }
    expected = defaultdict(list)
    for partition in PAIR_PARTITIONS:
        for key, value in partition:
            expected[key].append(value)
    assert result == {k: sorted(v) for k, v in expected.items()}


def test_sort_by_key_orders_globally(context):
    data = [[(9, "i"), (1, "a")], [(5, "e"), (3, "c")], [(7, "g")]]
    rdd = pair_rdd(context, data)
    result = rdd.sort_by_key(sample_keys=[1, 3, 5, 7, 9], num_partitions=2)
    collected = result.collect()
    assert [key for key, _v in collected] == [1, 3, 5, 7, 9]


def test_sort_by_key_descending(context):
    data = [[(2, "b"), (1, "a")], [(3, "c")]]
    result = pair_rdd(context, data).sort_by_key(
        sample_keys=[1, 2, 3], num_partitions=1, ascending=False
    ).collect()
    assert [key for key, _v in result] == [3, 2, 1]


def test_cogroup_includes_one_sided_keys(context):
    left = pair_rdd(context, [[("a", 1)], [("b", 2)]], path="/l")
    right = pair_rdd(context, [[("a", 9)], [("c", 7)]], path="/r")
    result = {
        key: (sorted(ls), sorted(rs))
        for key, (ls, rs) in left.cogroup(right).collect()
    }
    assert result == {
        "a": ([1], [9]),
        "b": ([2], []),
        "c": ([], [7]),
    }


def test_chained_shuffles(context):
    """reduceByKey then groupByKey over the reversed pair."""
    rdd = pair_rdd(context)
    summed = rdd.reduce_by_key(lambda a, b: a + b)
    regrouped = summed.map(lambda kv: (kv[1] % 2, kv[0])).group_by_key()
    result = {k: sorted(v) for k, v in regrouped.collect()}
    totals = Counter()
    for partition in PAIR_PARTITIONS:
        for key, value in partition:
            totals[key] += value
    expected = defaultdict(list)
    for key, total in totals.items():
        expected[total % 2].append(key)
    assert result == {k: sorted(v) for k, v in expected.items()}


def test_reduce_by_key_with_explicit_partitions(context):
    rdd = pair_rdd(context).reduce_by_key(lambda a, b: a + b, num_partitions=7)
    assert rdd.num_partitions == 7
    assert len(rdd.collect()) == 4


def test_shuffle_requires_pair_records(context):
    context.write_input_file("/notpairs", [[1, 2, 3]])
    rdd = context.text_file("/notpairs").reduce_by_key(lambda a, b: a + b)
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        rdd.collect()


def test_iterative_reuse_of_cached_shuffle_output(context):
    """PageRank-style: repeated cogroups against a cached grouped RDD."""
    links = pair_rdd(
        context, [[("a", "b"), ("b", "a")], [("a", "c")]], path="/links"
    ).group_by_key().cache()
    ranks = links.map_values(lambda _v: 1.0)
    for _ in range(2):
        contribs = links.cogroup(ranks).flat_map(
            lambda kv: [
                (dst, rank / len(dsts))
                for dsts in kv[1][0]
                for rank in kv[1][1]
                for dst in dsts
            ]
        )
        ranks = contribs.reduce_by_key(lambda a, b: a + b)
    result = dict(ranks.collect())
    # Plain-Python reference.
    adjacency = {"a": ["b", "c"], "b": ["a"]}
    reference = {k: 1.0 for k in adjacency}
    for _ in range(2):
        contribs = defaultdict(float)
        for src, neighbors in adjacency.items():
            rank = reference.get(src)
            if rank is None:
                continue
            for dst in neighbors:
                contribs[dst] += rank / len(neighbors)
        reference = dict(contribs)
    assert result == pytest.approx(reference)
