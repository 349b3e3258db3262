"""Properties of fault recovery: output identity and exact accounting.

* For any backend, seed, and crash/degrade chaos schedule, the job's
  output is identical with chaos on vs. off — recovery changes *when*
  and *where* work happens, never *what* is computed.
* Retries and relaunches never double-count bytes: the backend's
  counters stay byte-equal to the traffic monitor even when every
  reducer attempt fails once and an executor crashes mid-job, and the
  recovery counters are subsets of the totals.

Crash and degrade events keep stored blocks intact, so any schedule of
them leaves the job completable; storage-losing kinds (host, outage,
merger) are covered by the directed scenarios in ``test_recovery``.
"""

from __future__ import annotations

import dataclasses

from hypothesis import example, given, settings, strategies as st

from repro.config import FailureConfig
from repro.failures import ChaosEvent, ChaosSchedule
from repro.shuffle.backends import BACKENDS
from tests.conftest import make_context, quiet_config, small_spec
from tests.shuffle.test_counter_properties import _assert_counters_match_monitor
from repro.cluster.context import ClusterContext

SCALE = 1e5
HOSTS = ("dc-a-w0", "dc-a-w1", "dc-b-w0", "dc-b-w1")


def _run_job(backend: str, seed: int, chaos=None, failures=None):
    config = quiet_config(
        backend=backend, seed=seed, scale_factor=SCALE, chaos=chaos
    )
    if failures is not None:
        config = dataclasses.replace(config, failures=failures)
    context = ClusterContext(small_spec(), config)
    records = [(f"k{i % 11}", i) for i in range(48)]
    context.write_input_file("/in", [records[i::4] for i in range(4)])
    result = sorted(
        context.text_file("/in")
        .reduce_by_key(lambda a, b: a + b, num_partitions=8)
        .collect()
    )
    return context, result


@settings(max_examples=10, deadline=None)
@given(
    backend=st.sampled_from(tuple(BACKENDS)),
    seed=st.integers(min_value=0, max_value=3),
    victim=st.sampled_from(HOSTS),
    crash_at=st.floats(min_value=0.1, max_value=40.0),
    degrade=st.booleans(),
)
# The crashed attempt's 13.6 MB shuffle flow dc-a-w0 -> dc-b-w0 is still
# draining over the degraded link when the job returns (ROADMAP 4a).
@example(backend="remote", seed=0, victim="dc-b-w0", crash_at=14.0, degrade=True)
def test_output_identical_with_chaos_on_vs_off(
    backend, seed, victim, crash_at, degrade
):
    clean_context, clean_result = _run_job(backend, seed)
    clean_context.shutdown()

    events = [ChaosEvent(at=crash_at, kind="crash", target=victim)]
    if degrade:
        events.append(
            ChaosEvent(
                at=crash_at / 2, kind="degrade", target="dc-a->dc-b",
                factor=0.2, duration=crash_at,
            )
        )
    context, result = _run_job(backend, seed, chaos=ChaosSchedule(tuple(events)))
    assert result == clean_result
    _assert_counters_match_monitor(context)
    context.shutdown()


@settings(max_examples=8, deadline=None)
@given(
    backend=st.sampled_from(tuple(BACKENDS)),
    seed=st.integers(min_value=0, max_value=2),
    crash_at=st.floats(min_value=0.5, max_value=30.0),
)
def test_retries_never_double_count_bytes(backend, seed, crash_at):
    """Every reducer attempt fails once *and* an executor crashes; the
    counters must still reconcile exactly with the traffic monitor, and
    recovery bytes must be a subset of the totals."""
    failures = FailureConfig(
        reducer_failure_probability=1.0, max_injected_failures_per_task=1
    )
    chaos = ChaosSchedule(
        (ChaosEvent(at=crash_at, kind="crash", target="dc-a-w0"),)
    )
    clean_context, clean_result = _run_job(backend, seed)
    clean_context.shutdown()

    context, result = _run_job(backend, seed, chaos=chaos, failures=failures)
    assert result == clean_result
    _assert_counters_match_monitor(context)
    counters = context.shuffle_service.counters
    assert counters.recovery_wan_bytes <= counters.wan_bytes
    assert counters.recovery_intra_dc_bytes <= counters.intra_dc_bytes
    assert context.failure_injector.total_injected > 0
    context.shutdown()
