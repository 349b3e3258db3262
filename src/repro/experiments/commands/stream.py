"""``repro stream``: a multi-tenant job stream through the inter-job
scheduler on one shared cluster."""

from __future__ import annotations

import argparse

from repro.cli import usage_errors
from repro.errors import parse_token
from repro.experiments.commands import (
    arm_sanitizer,
    print_sanitizer_report,
    scheme_by_name,
)


def add_arguments(commands) -> None:
    stream = commands.add_parser(
        "stream",
        help="run a multi-tenant job stream through the inter-job "
        "scheduler on one shared cluster",
    )
    stream.add_argument(
        "--arrival", default="poisson:12:50", metavar="SPEC",
        help="arrival process: PROCESS:RATE:JOBS[:FACTOR[:FRACTION]] "
        "with PROCESS poisson|bursty, RATE in jobs/min "
        "(default poisson:12:50)",
    )
    stream.add_argument(
        "--tenants", default="default", metavar="SPEC",
        help="comma-separated tenants: NAME[:WEIGHT[:SHARE]] — WEIGHT "
        "drives the WAN fair share and the fair policy's executor "
        "share, SHARE the arrival mix (default one unit-weight tenant)",
    )
    stream.add_argument(
        "--policy", default="fifo",
        help="inter-job admission policy: fifo, fair, sjf, or pack",
    )
    stream.add_argument(
        "--mix", default=None,
        help="comma-separated workload specs shaping job sizes "
        "(default: all five Table I specs)",
    )
    stream.add_argument("--scheme", default="aggshuffle")
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--max-concurrent", type=int, default=4)
    stream.add_argument(
        "--sanitize", action="store_true",
        help="enable the runtime invariant sanitizer "
        "(see `repro run --help`)",
    )
    stream.set_defaults(func=cmd_stream)


def _validated(spec, flag: str):
    with usage_errors(flag):
        spec.validate()
    return spec


def _parse_arrival(text: str):
    """``PROCESS:RATE:JOBS[:FACTOR[:FRACTION]]`` -> ArrivalSpec.

    Errors name the offending token, like ``--chaos`` parsing does.
    """
    from repro.workloads.arrivals import ARRIVAL_PROCESSES, ArrivalSpec

    parts = text.split(":")
    if len(parts) < 3 or len(parts) > 5:
        raise SystemExit(
            f"--arrival: expected PROCESS:RATE:JOBS[:FACTOR[:FRACTION]], "
            f"got {text!r}"
        )
    process = parts[0]
    if process not in ARRIVAL_PROCESSES:
        raise SystemExit(
            f"--arrival: unknown process {process!r} "
            f"(choose from: {', '.join(ARRIVAL_PROCESSES)})"
        )
    labels = ("rate (jobs/min)", "job count", "burst factor", "burst fraction")
    values = [
        parse_token(
            float,
            token,
            SystemExit,
            f"--arrival: bad {label} token {token!r} in {text!r}",
        )
        for label, token in zip(labels, parts[1:])
    ]
    if not values[1].is_integer():
        raise SystemExit(
            f"--arrival: job count token {parts[2]!r} in {text!r} "
            "is not a whole number"
        )
    shape = dict(zip(("burst_factor", "burst_fraction"), values[2:]))
    return _validated(
        ArrivalSpec(
            process=process,
            rate_per_minute=values[0],
            num_jobs=int(values[1]),
            **shape,
        ),
        "--arrival",
    )


def _parse_tenants(text: str):
    """``NAME[:WEIGHT[:SHARE]],...`` -> tuple of TenantSpec."""
    from repro.workloads.arrivals import TenantSpec

    tenants = []
    for token in text.split(","):
        name, *parts = token.split(":")
        if not name or len(parts) > 2:
            raise SystemExit(
                f"--tenants: bad tenant token {token!r} in {text!r} "
                "(expected NAME[:WEIGHT[:SHARE]])"
            )
        numbers = {
            label: parse_token(
                float,
                raw,
                SystemExit,
                f"--tenants: bad {label} token {raw!r} in {token!r}",
            )
            for label, raw in zip(("weight", "share"), parts)
        }
        tenants.append(TenantSpec(name=name, **numbers))
    return tuple(tenants)


def cmd_stream(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.experiments.runner import ExperimentPlan, run_workload_once
    from repro.metrics.reporting import format_table
    from repro.scheduler.job_scheduler import JOB_POLICIES
    from repro.workloads import all_workloads
    from repro.workloads.arrivals import StreamSpec

    sanitizer = arm_sanitizer(args)
    if args.policy not in JOB_POLICIES:
        raise SystemExit(
            f"--policy: unknown policy {args.policy!r} "
            f"(choose from: {', '.join(JOB_POLICIES)})"
        )
    arrival = _parse_arrival(args.arrival)
    mix = tuple(token for token in (args.mix or "").split(",") if token)
    if mix:
        arrival = _validated(replace(arrival, mix=mix), "--mix")
    stream = _validated(
        StreamSpec(
            arrival=arrival,
            tenants=_parse_tenants(args.tenants),
            policy=args.policy,
            max_concurrent=args.max_concurrent,
        ),
        "stream",
    )
    scheme = scheme_by_name(args.scheme)
    plan = ExperimentPlan(seeds=(args.seed,), stream=stream)
    # The workload argument only labels single-job cells; stream cells
    # build their own mini jobs from the arrival schedule.
    result = run_workload_once(all_workloads()[0], scheme, args.seed, plan)
    info = result.stream
    print(
        f"stream / {scheme.value} (seed {args.seed}, policy {info['policy']})"
    )
    print(f"  shuffle backend : {result.backend}")
    print(
        f"  jobs            : {info['jobs_completed']:.0f} completed / "
        f"{info['jobs_failed']:.0f} failed of {info['jobs_submitted']:.0f} "
        f"(arrivals span {info['arrival_span_s']:.1f} s)"
    )
    print(f"  stream duration : {result.job_duration:9.1f} s")
    print(f"  cross-DC traffic: {result.cross_dc_megabytes:9.1f} MB")
    headers = [
        "tenant", "jobs", "JCT p50 (s)", "JCT p95 (s)", "JCT p99 (s)",
        "makespan (s)", "MB", "WAN MB",
    ]
    rows = []
    for tenant, row in result.tenants.items():
        rows.append([
            tenant,
            f"{row.get('jobs_completed', 0):.0f}/{row.get('jobs_submitted', 0):.0f}",
            f"{row.get('jct_p50_s', 0.0):.2f}",
            f"{row.get('jct_p95_s', 0.0):.2f}",
            f"{row.get('jct_p99_s', 0.0):.2f}",
            f"{row.get('makespan_s', 0.0):.1f}",
            f"{row.get('bytes', 0.0) / 1e6:.1f}",
            f"{row.get('wan_bytes', 0.0) / 1e6:.1f}",
        ])
    print(format_table(headers, rows))
    print_sanitizer_report(sanitizer)
    return 0
