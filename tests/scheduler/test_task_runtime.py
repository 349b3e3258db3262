"""TaskRuntime: unit-level charging and data-movement behaviour."""

import pytest

from repro.scheduler.task import Task
from repro.scheduler.task_runtime import TaskRuntime
from repro.scheduler.stage import build_stages
from tests.conftest import make_context


def runtime_for(context, rdd, host="dc-a-w0", partition=0):
    result_stage, _stages = build_stages(rdd)
    task = Task(result_stage, partition, preferred_hosts=[])
    return TaskRuntime(context, task, host)


def run_gen(context, generator):
    """Drive a runtime generator to completion on the simulator."""
    def wrapper(sim):
        value = yield from generator
        return value

    return context.sim.run_process(wrapper(context.sim))


def test_local_block_read_charges_disk_time_only(fetch_context):
    context = fetch_context
    context.write_input_file(
        "/in", [["x" * 1000]], placement_hosts=["dc-a-w0"]
    )
    rdd = context.text_file("/in")
    runtime = runtime_for(context, rdd, host="dc-a-w0")
    before = context.sim.now
    records = run_gen(context, runtime.read_input_block(rdd.block_id(0)))
    assert records == ["x" * 1000]
    assert context.sim.now > before  # disk time charged
    assert context.traffic.cross_dc_bytes == 0.0
    assert runtime.bytes_read_local > 0


def test_remote_block_read_uses_network(fetch_context):
    context = fetch_context
    context.write_input_file(
        "/in", [["y" * 1000]], placement_hosts=["dc-b-w0"]
    )
    rdd = context.text_file("/in")
    runtime = runtime_for(context, rdd, host="dc-a-w0")
    run_gen(context, runtime.read_input_block(rdd.block_id(0)))
    assert context.traffic.cross_dc_by_tag["input"] > 0
    assert runtime.bytes_transferred_in > 0


def test_same_dc_replica_preferred_over_remote():
    # Two replicas: one in dc-a, one in dc-b; reader is in dc-a.
    context = make_context(dfs_replication=2)
    context.write_input_file(
        "/in", [["z" * 100]], placement_hosts=["dc-a-w1", "dc-b-w0"]
    )
    rdd = context.text_file("/in")
    runtime = runtime_for(context, rdd, host="dc-a-w0")
    run_gen(context, runtime.read_input_block(rdd.block_id(0)))
    # The read must have stayed inside dc-a.
    assert context.traffic.cross_dc_bytes == 0.0
    assert context.traffic.total_bytes > 0


def test_charge_operator_scales_with_logical_bytes(fetch_context):
    from repro.rdd.size_estimator import SizedRecord

    context = fetch_context
    context.write_input_file("/in", [[1]])
    rdd = context.text_file("/in")
    runtime = runtime_for(context, rdd)
    start = context.sim.now
    run_gen(context, runtime.charge_operator(rdd, [SizedRecord(None, 80e6)]))
    big = context.sim.now - start
    start = context.sim.now
    run_gen(context, runtime.charge_operator(rdd, [SizedRecord(None, 8e6)]))
    small = context.sim.now - start
    assert big == pytest.approx(10 * small, rel=0.01)


def test_slowdown_multiplies_cpu_charges(fetch_context):
    from repro.rdd.size_estimator import SizedRecord

    context = fetch_context
    context.write_input_file("/in", [[1]])
    rdd = context.text_file("/in")
    runtime = runtime_for(context, rdd)
    records = [SizedRecord(None, 40e6)]
    start = context.sim.now
    run_gen(context, runtime.charge_operator(rdd, records))
    normal = context.sim.now - start
    runtime.slowdown = 3.0
    start = context.sim.now
    run_gen(context, runtime.charge_operator(rdd, records))
    straggling = context.sim.now - start
    assert straggling == pytest.approx(3 * normal, rel=0.01)


def test_combine_charge_cheaper_than_operator(fetch_context):
    from repro.rdd.size_estimator import SizedRecord

    context = fetch_context
    context.write_input_file("/in", [[1]])
    rdd = context.text_file("/in")
    runtime = runtime_for(context, rdd)
    records = [SizedRecord(None, 40e6)]
    start = context.sim.now
    run_gen(context, runtime.charge_operator(rdd, records))
    full = context.sim.now - start
    start = context.sim.now
    run_gen(context, runtime.charge_combine(rdd, records))
    combine = context.sim.now - start
    assert combine < full


def test_empty_records_charge_nothing(fetch_context):
    context = fetch_context
    context.write_input_file("/in", [[1]])
    rdd = context.text_file("/in")
    runtime = runtime_for(context, rdd)
    start = context.sim.now
    run_gen(context, runtime.charge_operator(rdd, []))
    run_gen(context, runtime.charge_sort(rdd, []))
    run_gen(context, runtime.charge_combine(rdd, []))
    assert context.sim.now == start


def test_ensure_pairs_rejects_non_tuples(fetch_context):
    from repro.errors import RDDError

    context = fetch_context
    context.write_input_file("/in", [[1]])
    rdd = context.text_file("/in")
    runtime = runtime_for(context, rdd)
    with pytest.raises(RDDError):
        runtime.ensure_pairs([42], "test op")
    runtime.ensure_pairs([("k", "v")], "test op")  # fine
    runtime.ensure_pairs([], "test op")  # empty is fine


def test_cache_read_from_remote_host_charges_network(fetch_context):
    context = fetch_context
    context.write_input_file("/in", [["w" * 500]], placement_hosts=["dc-b-w0"])
    rdd = context.text_file("/in").map(lambda x: x).cache()
    rdd.collect()  # cached at dc-b-w0 (where the block lives)
    cached_host = context.cache.location(rdd.rdd_id, 0)
    assert context.topology.datacenter_of(cached_host) == "dc-b"
    before = context.traffic.cross_dc_by_tag.get("cache", 0.0)
    runtime = runtime_for(context, rdd, host="dc-a-w0")
    records = run_gen(context, runtime.materialize(rdd, 0))
    assert records == ["w" * 500]
    assert context.traffic.cross_dc_by_tag.get("cache", 0.0) > before
