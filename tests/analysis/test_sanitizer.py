"""Runtime invariant sanitizer: detection, transparency, enablement.

Two obligations, tested separately: the checks *fire* on bad state
(fed synthetic violations directly), and a sanitized end-to-end run is
byte-identical to an unsanitized one while every check family actually
executes (a silently-dead hook cannot pass).
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.analysis.sanitizer import (
    InvariantViolation,
    Sanitizer,
    disable,
    enable,
    get_sanitizer,
    sanitized,
)
from repro.experiments.runner import ExperimentPlan, clear_data_cache, run_matrix
from repro.experiments.schemes import Scheme
from repro.network.traffic_monitor import TrafficMonitor
from repro.shuffle.backends import BACKENDS
from repro.workloads import workload_by_name
from repro.workloads.arrivals import ArrivalSpec, StreamSpec, TenantSpec
from tests.conftest import small_spec


@pytest.fixture(autouse=True)
def _clean():
    disable()
    clear_data_cache()
    yield
    disable()
    clear_data_cache()


# ---------------------------------------------------------------------------
# Individual checks fire on synthetic violations
# ---------------------------------------------------------------------------


def test_check_rates_accepts_feasible_solve():
    sanitizer = Sanitizer()
    sanitizer.check_rates(
        {1: 50.0, 2: 50.0}, {1: ("wan",), 2: ("wan",)}, {"wan": 100.0}
    )
    assert sanitizer.checks["rates"] == 1
    assert sanitizer.checks["capacity"] == 1


def test_check_rates_rejects_overcommitted_link():
    sanitizer = Sanitizer()
    with pytest.raises(InvariantViolation, match="capacity"):
        sanitizer.check_rates(
            {1: 80.0, 2: 80.0}, {1: ("wan",), 2: ("wan",)}, {"wan": 100.0}
        )


def test_check_rates_rejects_nan_negative_and_infinite():
    sanitizer = Sanitizer()
    for bad in (float("nan"), -1.0, float("inf")):
        with pytest.raises(InvariantViolation):
            sanitizer.check_rates({1: bad}, {1: ()}, {})


def test_check_rates_skips_uncapacitated_links():
    sanitizer = Sanitizer()
    sanitizer.check_rates(
        {1: 1e12}, {1: ("mystery",)}, {"known": 10.0}
    )  # no entry for "mystery": nothing to conserve


def test_check_remaining_rejects_negative_bytes():
    sanitizer = Sanitizer()
    sanitizer.check_remaining(1, 0.0)
    with pytest.raises(InvariantViolation, match="remaining"):
        sanitizer.check_remaining(1, -1e-6)


def test_check_time_rejects_backwards_clock():
    sanitizer = Sanitizer()
    sanitizer.check_time(5.0, 5.0)  # same-instant batches are fine
    sanitizer.check_time(5.0, 6.0)
    with pytest.raises(InvariantViolation, match="backwards"):
        sanitizer.check_time(6.0, 5.0)
    with pytest.raises(InvariantViolation, match="NaN"):
        sanitizer.check_time(0.0, float("nan"))


def _landed_context(*flows):
    """A stand-in context whose traffic monitor landed ``flows`` (the
    ``record`` arguments) and whose fetch backend's counters read it."""
    context = SimpleNamespace(
        traffic=TrafficMonitor(), shuffle_service=BACKENDS["fetch"]()
    )
    context.shuffle_service.bind(context)
    for flow in flows:
        context.traffic.record(*flow)
    return context


def test_check_landed_accepts_keyed_tenanted_bytes():
    sanitizer = Sanitizer()
    sanitizer.check_landed(_landed_context(
        ("dc-a", "dc-b", 100.0, "shuffle", "prod", (0, False)),
        ("dc-a", "dc-a", 25.0, "input", "batch"),
    ))
    assert sanitizer.checks["landed"] == 1


def test_reconcile_excludes_flows_still_in_flight_at_run_end():
    """Campaign finding (seed 0, schedule #98): a speculative loser's
    fetch stays active when the winning attempt completes the job.  A
    flow in flight has landed nowhere, so it is on no side: counters,
    monitor and its views all take its bytes only when it lands."""
    from repro.analysis.sanitizer import reconcile_run
    from tests.conftest import make_context

    context = make_context()
    backend = context.shuffle_service
    backend._move("dc-a-w0", "dc-b-w0", 1e9, "shuffle", "prod", shuffle_id=0)
    context.sim.run(until=1.0)
    assert context.fabric.active_flow_count == 1
    assert backend.counters.landed()["network_bytes"] == 0.0
    assert backend.counters.network_bytes_by_shuffle == {}
    assert context.traffic.by_tag.get("shuffle", 0.0) == 0.0
    assert context.traffic.by_tenant == {}
    assert reconcile_run(context) == []


def test_a_cancel_lands_its_delivered_bytes_on_every_record():
    """The monitor files a cancelled flow's delivered bytes once, and
    the counters' and the tenant report's views all read them."""
    from repro.analysis.sanitizer import reconcile_run
    from tests.conftest import make_context

    context = make_context()
    backend = context.shuffle_service
    flow = backend._move(
        "dc-a-w0", "dc-b-w0", 1e9, "shuffle", "prod", shuffle_id=0
    )
    context.sim.run(until=1.0)
    delivered = context.fabric.cancel(flow)
    assert 0.0 < delivered < 1e9
    assert backend.counters.landed()["wan_bytes"] == delivered
    assert backend.counters.network_bytes_by_shuffle == {0: delivered}
    assert context.traffic.cross_dc_by_tag["shuffle"] == delivered
    assert context.traffic.cross_dc_by_tenant == {"prod": delivered}
    assert reconcile_run(context) == []


def test_a_shuffle_flow_bypassing_the_move_primitive_is_reported():
    """A ``shuffle`` flow issued straight through ``fabric.transfer``
    lands on the monitor without a key, so on no counter:
    ``reconcile_run`` reports it, and under the sanitizer so does the
    next stage boundary."""
    from repro.analysis.sanitizer import reconcile_run
    from tests.conftest import make_context

    with sanitized() as sanitizer:
        context = make_context()
        context.fabric.transfer("dc-a-w0", "dc-b-w0", 1000.0, tag="shuffle")
        context.sim.run(until=1.0)
        assert any("wan_bytes" in v for v in reconcile_run(context))
        rdd = context.parallelize([(i % 3, i) for i in range(12)], 3)
        with pytest.raises(InvariantViolation, match="counters: .* at stage"):
            rdd.reduce_by_key(lambda a, b: a + b).collect()
    assert sanitizer.checks["landed"] == 1


def test_check_landed_rejects_an_untenanted_byte():
    """Once a run carries tenanted traffic, a byte landed without a
    tenant is on no tenant's row."""
    context = _landed_context(
        ("dc-a", "dc-b", 100.0, "shuffle", "prod", (0, False)),
        ("dc-a", "dc-b", 1.0, "input", ""),
    )
    with pytest.raises(InvariantViolation, match="tenants: .* at stage"):
        Sanitizer().check_landed(context)
    # Untenanted runs are not checked for tenants.
    Sanitizer().check_landed(_landed_context(("dc-a", "dc-b", 1.0, "input")))


# ---------------------------------------------------------------------------
# Enablement plumbing
# ---------------------------------------------------------------------------


def test_get_sanitizer_is_none_by_default():
    assert get_sanitizer() is None


def test_env_flag_installs_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    disable()  # re-arm the lazy env check under the patched env
    assert get_sanitizer() is not None
    monkeypatch.delenv("REPRO_SANITIZE")
    disable()
    assert get_sanitizer() is None


def test_enable_and_context_manager():
    installed = enable()
    assert get_sanitizer() is installed
    disable()
    with sanitized() as scoped:
        assert get_sanitizer() is scoped
        assert sum(scoped.checks.values()) == 0
    assert get_sanitizer() is None


# ---------------------------------------------------------------------------
# End-to-end: transparent and actually checking
# ---------------------------------------------------------------------------


def _stream_plan():
    return ExperimentPlan(
        cluster=small_spec(datacenters=("dc-a", "dc-b")),
        seeds=(3,),
        stream=StreamSpec(
            arrival=ArrivalSpec(
                process="poisson", rate_per_minute=120.0, num_jobs=5
            ),
            tenants=(
                TenantSpec("prod", weight=2.0, share=1.0),
                TenantSpec("batch", weight=1.0, share=1.0),
            ),
            policy="fair",
            max_concurrent=2,
        ),
    )


def _comparable(result):
    data = dataclasses.asdict(result)
    data["fabric_perf"] = {
        key: value
        for key, value in data["fabric_perf"].items()
        if key != "solver_seconds"
    }
    return data


def test_sanitized_stream_is_byte_identical_and_checks_run():
    workloads = [workload_by_name("wordcount")]
    plain = run_matrix(workloads, [Scheme.SPARK], _stream_plan())
    clear_data_cache()
    with sanitized() as sanitizer:
        checked = run_matrix(workloads, [Scheme.SPARK], _stream_plan())
    assert [_comparable(r) for r in plain] == [_comparable(r) for r in checked]
    # Every invariant family actually executed during the run.
    assert sanitizer.checks["rates"] > 0
    assert sanitizer.checks["capacity"] > 0
    assert sanitizer.checks["time"] > 0
    assert sanitizer.checks["landed"] > 0
