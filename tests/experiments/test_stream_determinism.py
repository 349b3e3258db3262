"""Seed plumbing for multi-tenant stream cells (#7, satellite).

A stream cell draws its whole job-arrival schedule from one seeded
``RandomSource`` child, so identical seeds must reproduce identical
schedules — and therefore byte-identical ``RunResult`` payloads
(tenants, stream summary, traffic, everything except the wall-clock
``solver_seconds`` counter) — whether ``run_matrix`` runs the cell in
its own process or in a pool worker.
"""

import dataclasses

import pytest

from repro.experiments.runner import ExperimentPlan, clear_data_cache, run_matrix
from repro.experiments.schemes import Scheme
from repro.workloads import workload_by_name
from repro.workloads.arrivals import (
    ArrivalSpec,
    StreamSpec,
    TenantSpec,
    generate_arrivals,
)
from repro.simulation.random_source import RandomSource
from tests.conftest import assert_every_byte_tenanted, small_spec


@pytest.fixture(autouse=True)
def _clean():
    clear_data_cache()
    yield
    clear_data_cache()


def _stream_plan():
    return ExperimentPlan(
        cluster=small_spec(datacenters=("dc-a", "dc-b")),
        seeds=(0, 1),
        stream=StreamSpec(
            arrival=ArrivalSpec(
                process="poisson", rate_per_minute=120.0, num_jobs=6
            ),
            tenants=(
                TenantSpec("prod", weight=4.0, share=1.0),
                TenantSpec("batch", weight=1.0, share=2.0),
            ),
            policy="fair",
            max_concurrent=2,
        ),
    )


def _run(jobs):
    workloads = [workload_by_name("wordcount")]
    return run_matrix(workloads, [Scheme.SPARK], _stream_plan(), jobs=jobs)


def _comparable(result):
    """RunResult as a dict minus the wall-clock perf field."""
    data = dataclasses.asdict(result)
    data["fabric_perf"] = {
        key: value
        for key, value in data["fabric_perf"].items()
        if key != "solver_seconds"
    }
    return data


def test_arrival_schedules_reproduce_from_seed():
    spec = _stream_plan().stream
    datacenters = ("dc-a", "dc-b")
    first = generate_arrivals(spec, datacenters, RandomSource(7).child("s"))
    again = generate_arrivals(spec, datacenters, RandomSource(7).child("s"))
    assert first == again
    other = generate_arrivals(spec, datacenters, RandomSource(8).child("s"))
    assert first != other
    # Arrival times are strictly ordered and tenants all belong to spec.
    times = [a.arrival_time for a in first]
    assert times == sorted(times)
    assert {a.tenant for a in first} <= {"prod", "batch"}


def test_stream_cells_identical_across_runners():
    serial = _run(jobs=1)
    clear_data_cache()
    parallel = _run(jobs=2)
    assert len(serial) == len(parallel) == 2
    for seq, par in zip(serial, parallel):
        assert _comparable(seq) == _comparable(par)
    # The stream actually ran: every job completed, tenants populated.
    for result in serial:
        assert result.stream["jobs_completed"] == 6
        assert set(result.tenants) == {"prod", "batch"}
        assert_every_byte_tenanted(result)
    # Different seeds draw different schedules -> different outcomes.
    assert _comparable(serial[0]) != _comparable(serial[1])
