"""Stage decomposition: boundaries, sharing, and transfer semantics."""


from repro.core.transfer_injection import insert_transfers
from repro.scheduler.stage import StageKind, build_stages
from tests.conftest import count_inserted_transfers


def install(context, partitions=None, path="/in"):
    context.write_input_file(
        path, partitions or [[("a", 1)], [("b", 2)]]
    )
    return context.text_file(path)


def test_narrow_only_job_is_single_stage(fetch_context):
    rdd = install(fetch_context).map(lambda x: x).flat_map(lambda x: [x])
    result_stage, stages = build_stages(rdd)
    assert len(stages) == 1
    assert result_stage.kind is StageKind.RESULT
    assert not result_stage.parents


def test_shuffle_splits_into_two_stages(fetch_context):
    rdd = install(fetch_context).reduce_by_key(lambda a, b: a + b)
    result_stage, stages = build_stages(rdd)
    assert len(stages) == 2
    assert stages[0].kind is StageKind.SHUFFLE_MAP
    assert stages[1] is result_stage
    assert result_stage.parents == [stages[0]]
    assert result_stage.reads_shuffle


def test_transfer_to_creates_producer_stage(push_context):
    rdd = install(push_context).transfer_to("dc-b")
    result_stage, stages = build_stages(rdd)
    kinds = [stage.kind for stage in stages]
    assert kinds == [StageKind.TRANSFER_PRODUCER, StageKind.RESULT]
    assert result_stage.is_receiver_stage
    producer = stages[0]
    assert result_stage.required_transfers(0) == [(producer, 0)]
    assert result_stage.required_transfers(1) == [(producer, 1)]


def test_transfer_before_shuffle_gives_three_stages(push_context):
    rdd = install(push_context).transfer_to("dc-b").reduce_by_key(
        lambda a, b: a + b
    )
    _result, stages = build_stages(rdd)
    kinds = sorted(stage.kind.value for stage in stages)
    assert kinds == ["result", "shuffle_map", "transfer_producer"]
    receiver = next(s for s in stages if s.kind is StageKind.SHUFFLE_MAP)
    assert receiver.is_receiver_stage


def test_insert_transfers_rewrites_every_shuffle(fetch_context):
    rdd = install(fetch_context).reduce_by_key(lambda a, b: a + b)
    rewritten = insert_transfers(rdd)
    _result, stages = build_stages(rewritten)
    kinds = sorted(stage.kind.value for stage in stages)
    assert kinds == ["result", "shuffle_map", "transfer_producer"]


def test_insert_transfers_is_idempotent(fetch_context):
    rdd = install(fetch_context).reduce_by_key(lambda a, b: a + b)
    insert_transfers(rdd)
    insert_transfers(rdd)
    assert count_inserted_transfers(rdd) == 1


def test_insert_transfers_respects_explicit_transfer(fetch_context):
    rdd = install(fetch_context).transfer_to("dc-b").reduce_by_key(
        lambda a, b: a + b
    )
    insert_transfers(rdd)
    dep = rdd.dependencies[0]
    # The explicit transfer must not be wrapped in another one.
    assert dep.parent.transfer_dependency.destination_datacenter == "dc-b"


def test_insert_transfers_carries_pre_combine(fetch_context):
    rdd = install(fetch_context).reduce_by_key(lambda a, b: a + b)
    insert_transfers(rdd)
    transferred = rdd.dependencies[0].parent
    assert transferred.transfer_dependency.pre_combine is not None
    _result, stages = build_stages(rdd)
    receiver = next(
        s for s in stages
        if s.kind is StageKind.SHUFFLE_MAP and s.is_receiver_stage
    )
    assert receiver.combine_done


def test_group_by_key_transfer_has_no_pre_combine(fetch_context):
    rdd = install(fetch_context).group_by_key()
    insert_transfers(rdd)
    transferred = rdd.dependencies[0].parent
    assert transferred.transfer_dependency.pre_combine is None


def test_cogroup_shares_nothing_but_builds_both_sides(fetch_context):
    left = install(fetch_context, path="/l")
    right = install(fetch_context, path="/r")
    rdd = left.cogroup(right)
    _result, stages = build_stages(rdd)
    map_stages = [s for s in stages if s.kind is StageKind.SHUFFLE_MAP]
    assert len(map_stages) == 2


def test_diamond_lineage_shares_shuffle_stage(fetch_context):
    """Two consumers of the same shuffled RDD share its map stage."""
    base = install(fetch_context).reduce_by_key(lambda a, b: a + b)
    left = base.map(lambda kv: (kv[0], 1))
    right = base.map(lambda kv: (kv[0], 2))
    rdd = left.cogroup(right)
    _result, stages = build_stages(rdd)
    map_stages = [s for s in stages if s.kind is StageKind.SHUFFLE_MAP]
    # One map stage per cogroup side, and one for the shared shuffle.
    shared = [s for s in map_stages if s.rdd is base.dependencies[0].parent]
    assert len(map_stages) == 3 and len(shared) == 1


def test_iterative_lineage_stage_count(fetch_context):
    """Two chained shuffles produce three stages."""
    rdd = (
        install(fetch_context)
        .reduce_by_key(lambda a, b: a + b)
        .map(lambda kv: (kv[1], kv[0]))
        .group_by_key()
    )
    _result, stages = build_stages(rdd)
    assert len(stages) == 3


def test_topological_order_parents_first(fetch_context):
    rdd = (
        install(fetch_context)
        .reduce_by_key(lambda a, b: a + b)
        .map(lambda kv: (kv[1], kv[0]))
        .group_by_key()
    )
    _result, stages = build_stages(rdd)
    seen = set()
    for stage in stages:
        for parent in stage.parents:
            assert parent.stage_id in seen
        seen.add(stage.stage_id)


def test_stage_names_mention_kind(fetch_context):
    rdd = install(fetch_context).reduce_by_key(lambda a, b: a + b)
    result_stage, _stages = build_stages(rdd)
    assert "result" in result_stage.name
