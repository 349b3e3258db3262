"""Campaign engine: oracles, determinism across runners, liveness,
artifact round trips, and speculation under chaos."""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.analysis.sanitizer import reconcile_run, sanitized
from repro.errors import ConfigurationError, LivenessError
from repro.failures import CampaignConfig, ChaosEvent, ChaosSchedule, run_campaign
from repro.failures.campaign import (
    CampaignCell,
    _run_campaign_shard,
    build_artifact,
    fault_free_hashes,
    load_artifact_schedule,
    run_cell,
)
from repro.rdd.size_estimator import SizedRecord
from repro.simulation.kernel import Simulator
from tests.conftest import quiet_config, small_spec


# ---------------------------------------------------------------------------
# Single cells and the composite oracle
# ---------------------------------------------------------------------------
def test_fault_free_cell_is_clean_and_deterministic():
    cell = CampaignCell(
        index=0,
        schedule_specs=(),
        backend="fetch",
        policy="baseline",
        seed=0,
        expected_hash=None,
        max_wall_seconds=30.0,
    )
    first = run_cell(cell)
    second = run_cell(cell)
    assert first.violations == ()
    assert first.job_failed == ""
    assert first.observed_hash
    assert first == second


def test_result_hash_oracle_catches_a_wrong_answer():
    """A deliberately wrong expected hash must surface as a violation —
    the oracle plumbing itself is under test here."""
    cell = CampaignCell(
        index=0,
        schedule_specs=(),
        backend="fetch",
        policy="baseline",
        seed=0,
        expected_hash="not-the-real-hash",
        max_wall_seconds=30.0,
    )
    outcome = run_cell(cell)
    assert any(v.startswith("result-hash:") for v in outcome.violations)


def test_chaotic_cell_reproduces_the_fault_free_hash():
    baseline = run_cell(
        CampaignCell(
            index=0,
            schedule_specs=(),
            backend="push_aggregate",
            policy="health",
            seed=0,
            expected_hash=None,
            max_wall_seconds=30.0,
        )
    )
    chaotic = run_cell(
        CampaignCell(
            index=0,
            schedule_specs=(
                "partition:dc-a->dc-b@1+3",
                "crash:dc-b-w0@1.5",
            ),
            backend="push_aggregate",
            policy="health",
            seed=0,
            expected_hash=baseline.observed_hash,
            max_wall_seconds=30.0,
        )
    )
    assert chaotic.violations == ()
    assert chaotic.observed_hash == baseline.observed_hash


def test_fault_free_hashes_cover_every_column():
    hashes = fault_free_hashes(("fetch", "blob"), ("baseline", "health"), seed=0)
    assert set(hashes) == {
        ("fetch", "baseline"),
        ("fetch", "health"),
        ("blob", "baseline"),
        ("blob", "health"),
    }
    assert all(hashes.values())


def test_pre_merge_survives_a_source_host_lost_mid_merge():
    """dc-a-w1 dies while its merge flow to dc-a's merger is in flight.
    The merge relocates the shards it planned with, so the job completes
    with the fault-free hash instead of failing for the lost record."""
    hashes = fault_free_hashes(("pre_merge",), ("baseline",), seed=0)
    outcome = run_cell(
        CampaignCell(
            index=0,
            schedule_specs=("host:dc-a-w1@3.112750999973894",),
            backend="pre_merge",
            policy="baseline",
            seed=0,
            expected_hash=hashes[("pre_merge", "baseline")],
            max_wall_seconds=30.0,
        )
    )
    assert outcome.job_failed == ""
    assert outcome.violations == ()


def test_unknown_policy_rejected():
    with pytest.raises(ConfigurationError):
        run_cell(
            CampaignCell(
                index=0,
                schedule_specs=(),
                backend="fetch",
                policy="yolo",
                seed=0,
                expected_hash=None,
                max_wall_seconds=30.0,
            )
        )


# ---------------------------------------------------------------------------
# Liveness oracle
# ---------------------------------------------------------------------------
def test_kernel_watchdog_flags_a_hung_simulation():
    sim = Simulator(wall_deadline_seconds=0.02)

    def spinner():
        while True:
            yield sim.timeout(0.001)

    sim.spawn(spinner(), name="spin")
    with pytest.raises(LivenessError):
        sim.run(until=1e15)


def test_cell_converts_a_blown_wall_budget_into_a_liveness_violation(
    monkeypatch,
):
    # A healthy cell finishes in fewer batch pulls than the watchdog's
    # sampling interval (that is the point of the interval); tighten it
    # so the microscopic budget below is actually observed.
    from repro.simulation import kernel

    monkeypatch.setattr(kernel, "_WALL_CHECK_INTERVAL", 1)
    cell = CampaignCell(
        index=0,
        schedule_specs=("partition:dc-a->dc-b@1+5",),
        backend="fetch",
        policy="baseline",
        seed=0,
        expected_hash=None,
        max_wall_seconds=1e-9,  # nothing finishes in a nanosecond
    )
    outcome = run_cell(cell)
    assert any(v.startswith("liveness:") for v in outcome.violations)


def test_watchdog_rejects_nonpositive_deadline():
    from repro.errors import SimulationError

    with pytest.raises(SimulationError):
        Simulator(wall_deadline_seconds=0.0)


# ---------------------------------------------------------------------------
# Campaign driver: determinism serial == parallel == sharded
# ---------------------------------------------------------------------------
def _small_campaign_config(**overrides):
    defaults = dict(
        seed=5,
        schedules=6,
        backends=("fetch", "push_aggregate"),
        policies=("baseline", "health"),
        rotate=True,
        events_min=2,
        events_max=4,
        minimize=False,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def test_campaign_is_seed_deterministic():
    first = run_campaign(_small_campaign_config(), jobs=1)
    second = run_campaign(_small_campaign_config(), jobs=1)
    assert first.schedules_drawn == second.schedules_drawn == 6
    assert first.cells_run == second.cells_run == 6
    assert first.kinds_applied == second.kinds_applied
    assert first.kinds_skipped == second.kinds_skipped
    assert first.recovery_totals == second.recovery_totals
    assert first.findings == second.findings == []


def test_campaign_parallel_matches_serial_byte_for_byte():
    serial = run_campaign(_small_campaign_config(), jobs=1)
    parallel = run_campaign(_small_campaign_config(), jobs=2)
    assert serial.kinds_applied == parallel.kinds_applied
    assert serial.kinds_skipped == parallel.kinds_skipped
    assert serial.kinds_by_backend == parallel.kinds_by_backend
    assert serial.recovery_totals == parallel.recovery_totals
    assert serial.cells_run == parallel.cells_run
    assert len(serial.findings) == len(parallel.findings) == 0


def test_full_matrix_mode_runs_the_cross_product():
    report = run_campaign(
        _small_campaign_config(schedules=2, rotate=False), jobs=1
    )
    assert report.cells_run == 2 * 2 * 2  # schedules x backends x policies


def test_campaign_coverage_counts_move():
    report = run_campaign(
        _small_campaign_config(schedules=12, events_min=3, events_max=6),
        jobs=1,
    )
    assert sum(report.kinds_applied.values()) > 0
    assert report.recovery_totals  # some recovery path fired
    summary = report.format_summary()
    assert "campaign: seed=5" in summary
    assert "coverage" in summary


def test_campaign_validates_config():
    with pytest.raises(ConfigurationError):
        run_campaign(CampaignConfig(schedules=0))
    with pytest.raises(ConfigurationError):
        run_campaign(CampaignConfig(policies=("yolo",)))
    with pytest.raises(ConfigurationError):
        CampaignConfig(events_min=5, events_max=2).validate()


# ---------------------------------------------------------------------------
# Artifacts: build -> write -> load -> replay, identical on every runner
# ---------------------------------------------------------------------------
def test_artifact_schedule_round_trips_through_json(tmp_path):
    specs = ["partition:dc-a->dc-b@1.5+3.0", "crash:dc-b-w0@2.0"]
    path = tmp_path / "finding.json"
    path.write_text(json.dumps({"version": 1, "schedule": specs}))
    schedule = load_artifact_schedule(str(path))
    assert [event.to_spec() for event in schedule.events] == specs


def test_artifact_without_schedule_list_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 1, "schedule": "nope"}))
    with pytest.raises(ConfigurationError):
        load_artifact_schedule(str(path))
    missing = tmp_path / "missing.json"
    with pytest.raises(ConfigurationError):
        load_artifact_schedule(str(missing))


def test_artifact_replay_is_identical_across_serial_parallel_sharded(tmp_path):
    """Replaying an emitted artifact produces byte-identical outcomes
    run serially, over two uneven shards, and one cell per worker."""
    from repro.experiments.runner import shard_map

    specs = ["partition:dc-a->dc-b@1+4", "crash:dc-b-w0@2.0"]
    path = tmp_path / "finding.json"
    path.write_text(json.dumps({"version": 1, "schedule": specs}))
    schedule = load_artifact_schedule(str(path))
    replay_specs = tuple(event.to_spec() for event in schedule.events)

    cells = [
        CampaignCell(
            index=index,
            schedule_specs=replay_specs,
            backend=backend,
            policy="health",
            seed=0,
            expected_hash=None,
            max_wall_seconds=30.0,
        )
        for index, backend in enumerate(("fetch", "push_aggregate", "blob"))
    ]
    serial = shard_map(cells, _run_campaign_shard, jobs=1)
    parallel = shard_map(cells, _run_campaign_shard, jobs=2)
    sharded = shard_map(cells, _run_campaign_shard, jobs=3)
    assert serial == parallel == sharded
    for outcome in serial:
        assert outcome.violations == ()


def test_build_artifact_carries_the_reproducer():
    from repro.failures.campaign import CellOutcome, Finding
    from repro.failures.minimize import MinimizationResult

    cell = CampaignCell(
        index=3,
        schedule_specs=("crash:dc-b-w0@2.0", "host:dc-a-w1@3.0"),
        backend="fetch",
        policy="health",
        seed=9,
        expected_hash="abc",
        max_wall_seconds=30.0,
    )
    outcome = CellOutcome(
        cell=cell,
        violations=("sanitizer: boom",),
        job_failed="",
        duration=1.0,
        chaos_applied=("crash",),
        chaos_skipped=(),
        recovery=(),
        observed_hash="def",
    )
    minimized = MinimizationResult(
        schedule=ChaosSchedule(
            (ChaosEvent(at=0.0, kind="crash", target="dc-b-w0"),)
        ),
        original_events=2,
        probes=5,
    )
    payload = build_artifact(
        Finding(outcome=outcome, minimized=minimized, artifact_path=None),
        campaign_seed=9,
    )
    assert payload["schedule"] == ["crash:dc-b-w0@0.0"]
    assert payload["original_schedule"] == list(cell.schedule_specs)
    assert payload["minimizer"] == {
        "original_events": 2,
        "events": 1,
        "probes": 5,
    }
    # And the artifact's schedule parses straight back.
    assert ChaosSchedule.from_specs(payload["schedule"])


# ---------------------------------------------------------------------------
# Speculation under chaos (satellite): a speculative duplicate racing a
# host kill settles counters consistently and never double-charges the
# tenant ledger.
# ---------------------------------------------------------------------------
class OneSlowTask:
    def __init__(self, factor: float = 8.0) -> None:
        self.factor = factor
        self._victim = None

    def slowdown(self, _randomness, task_key: str, attempt: int) -> float:
        # The draws are named after (job, stage, partition, attempt), which
        # a speculative copy shares with the attempt it duplicates: only
        # the first draw is slow.
        if self._victim is None:
            self._victim = (task_key, attempt)
            return self.factor
        return 1.0


def _merge(a: SizedRecord, b: SizedRecord) -> SizedRecord:
    return SizedRecord(a.payload + b.payload, a.natural_size + b.natural_size)


def test_speculative_duplicate_races_host_kill_without_double_charge(
    monkeypatch,
):
    from repro.cluster.context import ClusterContext
    from repro.scheduler import dag_scheduler

    monkeypatch.setattr(dag_scheduler, "SPECULATION_MULTIPLIER", 1.5)
    monkeypatch.setattr(dag_scheduler, "SPECULATION_QUANTILE", 0.5)
    monkeypatch.setattr(dag_scheduler, "SPECULATION_INTERVAL", 1.0)
    chaos = ChaosSchedule((
        ChaosEvent(at=2.0, kind="host", target="dc-b-w0"),
        ChaosEvent(at=3.0, kind="shuffle_worker", target="dc-a"),
    ))
    config = dataclasses.replace(
        quiet_config(speculation=True, dfs_replication=2), chaos=chaos
    )
    with sanitized():
        context = ClusterContext(
            small_spec(), config, straggler_model=OneSlowTask()
        )
        context.write_input_file(
            "/in",
            [[(f"k{i % 2}", SizedRecord(1, 2e8))] for i in range(8)],
        )
        result = context.text_file("/in").reduce_by_key(_merge).collect()

        recovery = context.recovery
        # The duplicate actually launched and the race resolved one way
        # or the other — never more wins than launches.
        assert recovery.speculative_launched >= 1
        assert recovery.speculative_wins <= recovery.speculative_launched
        assert recovery.hosts_lost >= 1
        # Re-executed and killed attempts must not corrupt the answer...
        assert sorted((key, record.payload) for key, record in result) == [
            ("k0", 4),
            ("k1", 4),
        ]
        # ...nor the books: counter == monitor == ledger, bit-exact.
        assert reconcile_run(context) == []
        context.shutdown()


def test_speculate_policy_cell_absorbs_kill_race():
    outcome = run_cell(
        CampaignCell(
            index=0,
            schedule_specs=("shuffle_worker:dc-b@1.0", "host:dc-c-w1@1.5"),
            backend="push_aggregate",
            policy="speculate",
            seed=3,
            expected_hash=None,
            max_wall_seconds=30.0,
        )
    )
    assert outcome.violations == ()
    recovery = dict(outcome.recovery)
    assert recovery.get("speculative_wins", 0) <= recovery.get(
        "speculative_launched", 0
    )


# ---------------------------------------------------------------------------
# Regression corpus: every stored artifact replays clean (satellite)
# ---------------------------------------------------------------------------
_CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
_CORPUS = sorted(
    os.path.join(_CORPUS_DIR, name)
    for name in os.listdir(_CORPUS_DIR)
    if name.endswith(".json")
)


def test_corpus_is_not_empty():
    assert len(_CORPUS) >= 4


@pytest.mark.parametrize("path", _CORPUS, ids=os.path.basename)
def test_corpus_artifact_replays_clean(path):
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    schedule = load_artifact_schedule(path)
    # Byte-exact grammar round trip of the stored specs.
    assert [event.to_spec() for event in schedule.events] == payload["schedule"]
    outcome = run_cell(
        CampaignCell(
            index=0,
            schedule_specs=tuple(payload["schedule"]),
            backend=payload["backend"],
            policy=payload["policy"],
            seed=payload["seed"],
            expected_hash=None,
            max_wall_seconds=60.0,
        )
    )
    assert outcome.violations == ()
