"""Fig. 1 and Fig. 2 motivating timelines, reproduced exactly.

The paper's numbers (§III-A): mappers finish at t=4 and t=8, the WAN
link has 1/4 the datacenter capacity, fetch-based transfers start when
stage N+1 begins (t=10) and share the link until t=18; pushed transfers
start at t=4 / t=8 and finish by t=12, letting reducers start at t=14
instead of t=18.
"""

import pytest

from benchmarks.scenarios import (
    fetch_failure_recovery,
    fetch_timeline,
    push_failure_recovery,
    push_timeline,
)


def test_fig1a_fetch_transfers_start_after_barrier():
    timeline = fetch_timeline()
    assert timeline.transfer_starts == [10.0, 10.0]


def test_fig1a_fetch_shared_link_finishes_at_18():
    timeline = fetch_timeline()
    assert timeline.shuffle_input_ready == pytest.approx(18.0)
    assert timeline.reduce_start == pytest.approx(18.0)


def test_fig1b_push_transfers_start_at_map_completion():
    timeline = push_timeline()
    assert timeline.transfer_starts == [4.0, 8.0]


def test_fig1b_push_transfers_finish_by_12():
    timeline = push_timeline()
    assert timeline.transfer_ends == [
        pytest.approx(8.0), pytest.approx(12.0),
    ]


def test_fig1_reducers_start_at_14_vs_18():
    """The headline of Fig. 1: reducers start 4 time units earlier."""
    fetch = fetch_timeline()
    push = push_timeline()
    assert push.reduce_start == pytest.approx(14.0)
    assert fetch.reduce_start == pytest.approx(18.0)
    assert fetch.reduce_start - push.reduce_start == pytest.approx(4.0)


def test_fig1_push_finishes_job_earlier():
    assert push_timeline().reduce_end < fetch_timeline().reduce_end


def test_fig2_fetch_recovery_pays_wan_refetch():
    recovery = fetch_failure_recovery()
    # Re-reading one unit over the 1/4-capacity WAN link takes 4 s.
    assert recovery.recovery_read_seconds == pytest.approx(4.0)


def test_fig2_push_recovery_reads_locally():
    recovery = push_failure_recovery()
    assert recovery.recovery_read_seconds < 1.0


def test_fig2_push_recovers_sooner():
    fetch = fetch_failure_recovery()
    push = push_failure_recovery()
    assert push.recovered_at < fetch.recovered_at
    saved = (
        fetch.recovery_read_seconds - push.recovery_read_seconds
    )
    assert saved == pytest.approx(3.5)
