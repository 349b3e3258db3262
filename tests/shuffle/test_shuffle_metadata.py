"""MapOutputTracker (map output records) and the transfer staging store."""

import pytest

from repro.errors import MapOutputMissingError
from repro.shuffle import MapOutputTracker, MapStatus, TransferTracker
from repro.shuffle.map_output_tracker import ShuffleShard


# ----------------------------------------------------------------------
# MapOutputTracker
# ----------------------------------------------------------------------
def tracked(num_maps=3, num_reduces=2):
    tracker = MapOutputTracker()
    tracker.register_shuffle(7, num_maps=num_maps)
    return tracker


def sized(*sizes):
    return [ShuffleShard([], size) for size in sizes]


def test_registration_and_completion():
    tracker = tracked(num_maps=2)
    assert not tracker.is_complete(7)
    tracker.register_map_output(7, MapStatus(0, "h0", sized(10.0, 20.0)))
    assert not tracker.is_complete(7)
    tracker.register_map_output(7, MapStatus(1, "h1", sized(5.0, 0.0)))
    assert tracker.is_complete(7)


def test_register_shuffle_idempotent():
    tracker = tracked(num_maps=1)
    tracker.register_map_output(7, MapStatus(0, "h0", sized(1.0)))
    tracker.register_shuffle(7, num_maps=1)  # must not wipe outputs
    assert tracker.is_complete(7)


def test_map_statuses_sorted_by_index():
    tracker = tracked()
    tracker.register_map_output(7, MapStatus(2, "h2", sized(1.0, 1.0)))
    tracker.register_map_output(7, MapStatus(0, "h0", sized(1.0, 1.0)))
    statuses = tracker.map_statuses(7)
    assert [s.map_index for s in statuses] == [0, 2]


def test_unknown_shuffle_raises():
    tracker = MapOutputTracker()
    with pytest.raises(MapOutputMissingError):
        tracker.map_statuses(99)
    with pytest.raises(MapOutputMissingError):
        tracker.register_map_output(99, MapStatus(0, "h", sized(1.0)))
    assert not tracker.is_complete(99)


def test_reducer_input_by_host_sums_shards():
    tracker = tracked(num_maps=2)
    tracker.register_map_output(7, MapStatus(0, "h0", sized(10.0, 20.0)))
    tracker.register_map_output(7, MapStatus(1, "h0", sized(5.0, 1.0)))
    assert tracker.reducer_input_by_host(7, 0) == {"h0": 15.0}
    assert tracker.reducer_input_by_host(7, 1) == {"h0": 21.0}


def test_reducer_preferred_hosts_threshold():
    tracker = tracked(num_maps=4)
    tracker.register_map_output(7, MapStatus(0, "big", sized(80.0, 0.0)))
    tracker.register_map_output(7, MapStatus(1, "s1", sized(10.0, 0.0)))
    tracker.register_map_output(7, MapStatus(2, "s2", sized(5.0, 0.0)))
    tracker.register_map_output(7, MapStatus(3, "s3", sized(5.0, 0.0)))
    prefs = tracker.reducer_preferred_hosts(7, 0, fraction=0.2)
    assert prefs == ["big"]
    # Scattered input: nothing passes the threshold.
    assert tracker.reducer_preferred_hosts(7, 0, fraction=0.9) == []
    # Empty reducer: no preference at all.
    assert tracker.reducer_preferred_hosts(7, 1, fraction=0.2) == []


def test_output_by_datacenter():
    tracker = tracked(num_maps=2)
    tracker.register_map_output(7, MapStatus(0, "h0", sized(10.0, 10.0)))
    tracker.register_map_output(7, MapStatus(1, "h1", sized(30.0, 0.0)))
    by_dc = tracker.total_output_by_datacenter(
        7, {"h0": "east", "h1": "west"}.__getitem__
    )
    assert by_dc == {"east": 20.0, "west": 30.0}


def test_unregister_shuffle():
    tracker = tracked(num_maps=1)
    tracker.register_map_output(7, MapStatus(0, "h0", sized(1.0)))
    tracker.unregister_shuffle(7)
    assert not tracker.is_complete(7)


# ----------------------------------------------------------------------
# The tracker as the one record of map output: payload and location
# ----------------------------------------------------------------------
def test_map_output_roundtrip():
    tracker = tracked(num_maps=1)
    shards = [ShuffleShard([("a", 1)], 10.0), ShuffleShard([], 0.0)]
    tracker.register_map_output(7, MapStatus(0, "h0", shards))
    status = tracker.map_status(7, 0)
    assert status.shards[0].records == [("a", 1)]
    assert status.shards[1].size_bytes == 0.0
    assert tracker.bytes_by_host() == {"h0": 10.0}


def test_map_output_reregistration_replaces():
    tracker = tracked(num_maps=1)
    tracker.register_map_output(7, MapStatus(0, "h0", [ShuffleShard([1], 1.0)]))
    tracker.register_map_output(7, MapStatus(0, "h9", [ShuffleShard([2], 2.0)]))
    assert tracker.bytes_by_host() == {"h9": 2.0}
    assert tracker.map_status(7, 0).shards[0].records == [2]


def test_missing_map_output_raises():
    tracker = tracked(num_maps=1)
    with pytest.raises(MapOutputMissingError):
        tracker.map_status(7, 0)


def test_unregister_shuffle_drops_its_map_outputs_only():
    tracker = MapOutputTracker()
    for shuffle_id in (1, 2):
        tracker.register_shuffle(shuffle_id, num_maps=1)
        tracker.register_map_output(
            shuffle_id, MapStatus(0, "h0", [ShuffleShard([shuffle_id], 1.0)])
        )
    tracker.unregister_shuffle(1)
    with pytest.raises(MapOutputMissingError):
        tracker.map_status(1, 0)
    assert tracker.map_status(2, 0).shards[0].records == [2]


# ----------------------------------------------------------------------
# TransferTracker
# ----------------------------------------------------------------------
def test_transfer_tracker_roundtrip():
    tracker = TransferTracker()
    tracker.stage_partition(5, 0, "h0", [1, 2], 16.0)
    staged = tracker.try_get(5, 0)
    assert staged.host == "h0"
    assert staged.records == [1, 2]
    assert tracker.try_get(5, 1) is None


def test_transfer_tracker_remove():
    tracker = TransferTracker()
    tracker.stage_partition(5, 0, "h0", [], 0.0)
    tracker.stage_partition(6, 0, "h0", [], 0.0)
    tracker.remove_transfer(5)
    assert tracker.try_get(5, 0) is None
    assert tracker.try_get(6, 0) is not None
