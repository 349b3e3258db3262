"""Golden pin: each backend's absolute timing, counters and traffic.

The equivalence suites compare backends to *each other*; nothing else
pins one backend's simulated outcome across commits.  This test records,
for every registered backend and three tiny fixed-seed scenarios, the
JCT, an order-insensitive result hash, ``ShuffleCounters``, the traffic
monitor's per-tag bytes, ``HealthCounters`` and ``RecoveryCounters`` in
``backend_golden.json`` and compares them with ``==`` — floats
round-trip through JSON by ``repr``, so a refactor of the shuffle data
path that moves one flow, one RNG draw or one float accumulation fails
here.

Scenarios:

* ``fault_free`` — no chaos, retries off;
* ``flow_retry_degrade`` — flow retries on under a sustained two-way
  ``degrade`` of the dc-a<->dc-b WAN pair, so reads ride
  ``transfer_with_retry`` and deadline misses re-issue;
* ``worker_loss`` — one storage-losing ``shuffle_worker`` event while
  reducers are reading (per-backend time and datacenter: each backend
  starts its reduce reads at a different point and keeps its shuffle
  input in a different place).

Regenerate (only when a change is *meant* to move simulated outcomes,
and say so in the diff): ``PYTHONPATH=src:. python -m
tests.shuffle.test_backend_golden``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.config import HealthConfig
from repro.failures.chaos import ChaosEvent, ChaosSchedule
from repro.shuffle.backends import backend_names
from tests.conftest import make_context, small_spec

GOLDEN_PATH = Path(__file__).with_name("backend_golden.json")

RETRY_HEALTH = HealthConfig(
    flow_retry_enabled=True,
    breaker_enabled=True,
    flow_deadline_base=0.05,
    flow_deadline_multiplier=3.0,
    max_flow_retries=2,
    flow_retry_backoff=0.05,
)

# (time, datacenter) of the storage-losing event.  Mid-reduce for each
# backend in the fault-free run: after its staging step (merge /
# upload+replicate / PUT / push) landed, before the last reducer
# finished.  push_aggregate loses a host of its aggregator datacenter
# (dc-b here) — the only place its shuffle input lives; blob's objects
# survive anything, so its event takes a host with reducers mid-GET.
WORKER_LOSS = {
    "fetch": (4.0, "dc-a"),
    "push_aggregate": (13.0, "dc-b"),
    "pre_merge": (4.0, "dc-a"),
    "remote": (14.0, "dc-a"),
    "blob": (5.0, "dc-b"),
}


def _degrade_schedule() -> ChaosSchedule:
    return ChaosSchedule(tuple(
        ChaosEvent(at=1.0, kind="degrade", target=pair,
                   factor=0.05, duration=600.0)
        for pair in ("dc-a->dc-b", "dc-b->dc-a")
    ))


def _scenario_overrides(scenario: str, backend: str) -> dict:
    if scenario == "fault_free":
        return {}
    if scenario == "flow_retry_degrade":
        return {"health": RETRY_HEALTH, "chaos": _degrade_schedule()}
    if scenario == "worker_loss":
        at, datacenter = WORKER_LOSS[backend]
        return {
            "chaos": ChaosSchedule((
                ChaosEvent(at=at, kind="shuffle_worker", target=datacenter),
            )),
        }
    raise AssertionError(scenario)


SCENARIOS = ("fault_free", "flow_retry_degrade", "worker_loss")


def observe(backend: str, scenario: str) -> dict:
    """Run one tiny reduce job and snapshot everything pinned."""
    context = make_context(
        backend=backend,
        seed=0,
        spec=small_spec(datacenters=("dc-a", "dc-b", "dc-c")),
        scale_factor=1e5,
        dfs_replication=2,
        **_scenario_overrides(scenario, backend),
    )
    records = [(f"k{i % 29}", i) for i in range(96)]
    context.write_input_file("/in", [records[i::6] for i in range(6)])
    result = (
        context.text_file("/in")
        .reduce_by_key(lambda a, b: a + b, num_partitions=8)
        .collect()
    )
    jct = context.sim.now
    context.sim.run()  # drain background re-replication
    snapshot = {
        "jct": jct,
        "drained_at": context.sim.now,
        "result_hash": hashlib.sha256(
            repr(sorted(result)).encode()
        ).hexdigest(),
        "chaos_applied": (
            context.chaos_injector.events_applied
            if context.chaos_injector is not None else 0
        ),
        "counters": context.shuffle_service.counters.as_dict(),
        "by_tag": dict(context.traffic.by_tag),
        "cross_dc_by_tag": dict(context.traffic.cross_dc_by_tag),
        "health": context.health.as_dict(),
        "recovery": context.recovery.as_dict(),
    }
    context.shutdown()
    return snapshot


def observe_all() -> dict:
    return {
        backend: {
            scenario: observe(backend, scenario) for scenario in SCENARIOS
        }
        for backend in backend_names()
    }


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_registered_backend():
    assert sorted(_golden()) == sorted(backend_names())


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("backend", backend_names())
def test_backend_matches_golden(backend, scenario):
    expected = _golden()[backend][scenario]
    # Round-trip through JSON so both sides have identical key/number
    # types; floats survive exactly (json writes repr).
    observed = json.loads(json.dumps(observe(backend, scenario)))
    assert sorted(observed) == sorted(expected)
    for section in sorted(expected):
        assert observed[section] == expected[section], (
            f"{backend}/{scenario}: {section} moved"
        )


@pytest.mark.parametrize("backend", backend_names())
def test_golden_scenarios_exercise_what_they_claim(backend):
    """The pin is only worth something if the scenarios bite."""
    golden = _golden()[backend]
    assert golden["fault_free"]["chaos_applied"] == 0
    assert golden["flow_retry_degrade"]["health"]["flow_retries"] > 0
    assert golden["worker_loss"]["recovery"]["shuffle_worker_losses"] == 1
    hashes = {golden[scenario]["result_hash"] for scenario in SCENARIOS}
    assert len(hashes) == 1


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(observe_all(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
