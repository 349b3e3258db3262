"""Command-line interface: run experiments without writing code.

Usage::

    python -m repro run <workload> [--scheme SCHEME] [--seed N]
    python -m repro compare <workload> [--seeds N]
    python -m repro fig7 | fig8 | headline [--seeds N] [--jobs N]
    python -m repro lineage <workload> [--scheme SCHEME]

Workloads: wordcount, sort, terasort, pagerank, naivebayes.
Schemes are enumerated from the scheme registry (spark, centralized,
aggshuffle, iridiumlike, premerge, plus any newly registered shuffle
backend).

``--jobs N`` fans the (workload x scheme x seed) matrix out over N
worker processes; cells are independent seeded simulations, so the
output is identical to a sequential run.  ``REPRO_JOBS`` sets the
default.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.figures import (
    fig7_job_completion_times,
    fig8_cross_dc_traffic,
    headline_numbers,
)
from repro.experiments.runner import (
    ExperimentPlan,
    run_matrix_parallel,
    run_workload_once,
)
from repro.experiments.schemes import PAPER_SCHEMES, Scheme, all_schemes
from repro.metrics.reporting import format_table
from repro.workloads import all_workloads, workload_by_name


def _scheme(name: str) -> Scheme:
    for scheme in all_schemes():
        if scheme.value.lower() == name.lower():
            return scheme
    choices = ", ".join(s.value.lower() for s in all_schemes())
    raise SystemExit(f"unknown scheme {name!r} (choose from: {choices})")


def _expand_chaos_specs(tokens: List[str], cluster) -> List[str]:
    """Expand ``random:<n>@<seed>`` and ``@artifact.json`` chaos tokens
    into plain event specs; other tokens pass through untouched.

    ``random:`` draws a seeded schedule from the weighted grammar over
    ``cluster``'s hosts/DCs/WAN pairs; ``@path`` replays the schedule of
    a campaign artifact.  Malformed tokens exit naming the token, like
    the rest of the grammar.
    """
    from repro.errors import ConfigurationError
    from repro.failures.campaign import load_artifact_schedule
    from repro.failures.grammar import (
        ChaosUniverse,
        GrammarConfig,
        parse_random_token,
        random_schedule,
        schedule_to_specs,
    )
    from repro.simulation.random_source import RandomSource

    expanded: List[str] = []
    for token in tokens:
        try:
            if token.startswith("random:"):
                events, seed = parse_random_token(token)
                schedule = random_schedule(
                    RandomSource(seed).child("cli:random"),
                    ChaosUniverse.from_spec(cluster),
                    GrammarConfig(events=events, window=(1.0, 30.0)),
                )
                expanded.extend(schedule_to_specs(schedule))
            elif token.startswith("@"):
                expanded.extend(
                    schedule_to_specs(load_artifact_schedule(token[1:]))
                )
            else:
                expanded.append(token)
        except ConfigurationError as error:
            raise SystemExit(str(error)) from None
    return expanded


def _plan(
    seeds: int,
    chaos_specs: Optional[List[str]] = None,
    health=None,
) -> ExperimentPlan:
    base_config = None
    if chaos_specs or health is not None:
        from repro.config import SimulationConfig
        from repro.errors import ConfigurationError
        from repro.failures.chaos import ChaosSchedule

        replication = 1
        schedule = None
        if chaos_specs:
            try:
                schedule = ChaosSchedule.from_specs(chaos_specs)
            except ConfigurationError as error:
                raise SystemExit(str(error)) from None
            # Storage-losing events need a second input replica, or
            # lineage recovery bottoms out at permanently lost blocks.
            if any(
                e.kind in ("host", "outage", "merger", "shuffle_worker")
                for e in schedule.events
            ):
                replication = 2
        base_config = SimulationConfig(dfs_replication=replication)
        if schedule is not None:
            base_config = base_config.with_chaos(schedule)
        if health is not None:
            base_config = base_config.with_health(health)
    return ExperimentPlan(seeds=tuple(range(seeds)), base_config=base_config)


def _maybe_sanitize(args: argparse.Namespace):
    """Install the runtime invariant sanitizer when ``--sanitize`` was
    given (must happen before the cluster is built: components capture
    the sanitizer at construction).  Also returns the sanitizer armed
    by ``REPRO_SANITIZE`` so env-enabled runs report their check
    counts too."""
    from repro.analysis import sanitizer as sanitizer_module

    if getattr(args, "sanitize", False):
        return sanitizer_module.enable()
    return sanitizer_module.get_sanitizer()


def _print_sanitize_report(sanitizer) -> None:
    if sanitizer is None:
        return
    counts = sanitizer.snapshot()
    print(
        "  sanitizer       : all invariants held — "
        + ", ".join(
            f"{name} x{count:.0f}" for name, count in sorted(counts.items())
        )
    )


def cmd_run(args: argparse.Namespace) -> int:
    sanitizer = _maybe_sanitize(args)
    workload = workload_by_name(args.workload)
    scheme = _scheme(args.scheme)
    if args.chaos:
        args.chaos = _expand_chaos_specs(args.chaos, ExperimentPlan().cluster)
    health = None
    if args.blacklist or args.flow_retry:
        from repro.config import HealthConfig

        health = HealthConfig(
            blacklist_enabled=args.blacklist,
            flow_retry_enabled=args.flow_retry,
            # Flow retry alone cannot dodge a sick path without the
            # breaker steering re-issues, so the flags travel together.
            breaker_enabled=args.flow_retry,
        )
    result = run_workload_once(
        workload, scheme, args.seed,
        _plan(1, chaos_specs=args.chaos, health=health),
    )
    print(f"{workload.name} / {scheme.value} (seed {args.seed})")
    print(f"  shuffle backend : {result.backend}")
    print(f"  completion time : {result.duration:9.1f} s")
    print(f"  cross-DC traffic: {result.cross_dc_megabytes:9.1f} MB")
    for tag, megabytes in sorted(result.cross_dc_by_tag.items()):
        print(f"    {tag:<12}: {megabytes:9.1f} MB")
    print("  stages:")
    for stage in result.stages:
        print(
            f"    t={stage.started_at:8.1f}  {stage.duration:8.1f} s  "
            f"{stage.kind}"
        )
    perf = result.fabric_perf
    if perf:
        print(
            "  fabric perf     : "
            f"{perf['solves']:.0f} solves, "
            f"{perf['flows_touched']:.0f} flows touched "
            f"(mean {perf['mean_flows_per_solve']:.1f}/solve), "
            f"{perf['solver_seconds'] * 1e3:.1f} ms in solver, "
            f"peak {perf['peak_active_flows']:.0f} flows, "
            f"{perf['jitter_noops']:.0f} jitter no-ops, "
            f"{perf['plan_segments_fired']:.0f}/"
            f"{perf['plan_segments_planned']:.0f} plan segments fired, "
            f"plans {perf['plans_uniform']:.0f} uniform / "
            f"{perf['plans_scalar']:.0f} scalar / "
            f"{perf['plans_vector']:.0f} vector"
        )
    shuffle = result.shuffle_perf
    if shuffle:
        print(
            "  shuffle perf    : "
            f"{shuffle['blocks_fetched']:.0f} blocks fetched, "
            f"{shuffle['blocks_pushed']:.0f} pushed, "
            f"{shuffle['wan_bytes'] / 1e6:.1f} MB WAN / "
            f"{shuffle['intra_dc_bytes'] / 1e6:.1f} MB intra-DC / "
            f"{shuffle['local_bytes'] / 1e6:.1f} MB local, "
            f"{shuffle['merge_rounds']:.0f} merge rounds "
            f"(mean fan-in {shuffle['mean_merge_fan_in']:.1f})"
        )
    if result.injected_failures_total or result.straggler_hits:
        print(
            "  fault injection : "
            f"{result.injected_failures_total} attempt failure(s) "
            f"injected, {result.straggler_hits} straggler(s) hit"
        )
    if args.chaos:
        print(
            "  chaos           : "
            f"{result.chaos_events_applied}/{len(args.chaos)} "
            "event(s) applied"
        )
    recovery = result.recovery
    if recovery and any(recovery.values()):
        print(
            "  recovery        : "
            f"{recovery['tasks_relaunched']:.0f} relaunched, "
            f"{recovery['fetch_failures']:.0f} fetch failure(s), "
            f"{recovery['stages_resubmitted']:.0f} stage(s) resubmitted, "
            f"{recovery['tasks_recomputed']:.0f} task(s) recomputed, "
            f"speculative {recovery['speculative_wins']:.0f}W/"
            f"{recovery['speculative_launched']:.0f}L"
        )
        rec_wan = result.shuffle_perf.get("recovery_wan_bytes", 0.0)
        rec_intra = result.shuffle_perf.get("recovery_intra_dc_bytes", 0.0)
        if rec_wan or rec_intra:
            print(
                "  recovery bytes  : "
                f"{rec_wan / 1e6:.1f} MB WAN / "
                f"{rec_intra / 1e6:.1f} MB intra-DC"
            )
    health_counters = result.health
    if health_counters and any(health_counters.values()):
        print(
            "  health          : "
            f"excluded {health_counters['stage_exclusions']:.0f} stage/"
            f"{health_counters['hosts_blacklisted']:.0f} host/"
            f"{health_counters['datacenters_blacklisted']:.0f} dc, "
            f"{health_counters['placements_vetoed']:.0f} veto(es), "
            f"breaker {health_counters['breaker_trips']:.0f}T/"
            f"{health_counters['breaker_probes']:.0f}P/"
            f"{health_counters['breaker_closes']:.0f}C, "
            f"{health_counters['flow_retries']:.0f} flow retrie(s) "
            f"({health_counters['retry_wasted_bytes'] / 1e6:.1f} MB wasted), "
            f"{health_counters['reelections']:.0f} re-election(s), "
            f"{health_counters['fallback_activations']:.0f} fallback(s)"
        )
    _print_sanitize_report(sanitizer)
    return 0


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
    values = []
    for label, token in zip(labels, parts[1:]):
        try:
            values.append(float(token))
        except ValueError:
            raise SystemExit(
                f"--arrival: bad {label} token {token!r} in {text!r}"
            ) from None
    spec = ArrivalSpec(
        process=process,
        rate_per_minute=values[0],
        num_jobs=int(values[1]),
        **(
            {"burst_factor": values[2]} if len(values) > 2 else {}
        ),
        **(
            {"burst_fraction": values[3]} if len(values) > 3 else {}
        ),
    )
    _validated(spec, "--arrival")
    return spec


def _parse_tenants(text: str):
    """``NAME[:WEIGHT[:SHARE]],...`` -> tuple of TenantSpec."""
    from repro.workloads.arrivals import TenantSpec

    tenants = []
    for token in text.split(","):
        parts = token.split(":")
        if not parts[0] or len(parts) > 3:
            raise SystemExit(
                f"--tenants: bad tenant token {token!r} in {text!r} "
                "(expected NAME[:WEIGHT[:SHARE]])"
            )
        numbers = []
        for label, raw in zip(("weight", "share"), parts[1:]):
            try:
                numbers.append(float(raw))
            except ValueError:
                raise SystemExit(
                    f"--tenants: bad {label} token {raw!r} in {token!r}"
                ) from None
        tenants.append(
            TenantSpec(
                name=parts[0],
                weight=numbers[0] if numbers else 1.0,
                share=numbers[1] if len(numbers) > 1 else 1.0,
            )
        )
    return tuple(tenants)


def _validated(spec, flag: str):
    from repro.errors import WorkloadError

    try:
        spec.validate()
    except WorkloadError as error:
        raise SystemExit(f"{flag}: {error}") from None
    return spec


def cmd_stream(args: argparse.Namespace) -> int:
    from repro.scheduler.job_scheduler import JOB_POLICIES
    from repro.workloads.arrivals import StreamSpec

    sanitizer = _maybe_sanitize(args)
    if args.policy not in JOB_POLICIES:
        raise SystemExit(
            f"--policy: unknown policy {args.policy!r} "
            f"(choose from: {', '.join(JOB_POLICIES)})"
        )
    mix = ()
    if args.mix:
        mix = tuple(token for token in args.mix.split(",") if token)
    arrival = _parse_arrival(args.arrival)
    if mix:
        from dataclasses import replace as _replace

        arrival = _validated(_replace(arrival, mix=mix), "--mix")
    stream = _validated(
        StreamSpec(
            arrival=arrival,
            tenants=_parse_tenants(args.tenants),
            policy=args.policy,
            max_concurrent=args.max_concurrent,
        ),
        "stream",
    )
    scheme = _scheme(args.scheme)
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
    _print_sanitize_report(sanitizer)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.engine import (
        format_findings,
        lint_paths,
        load_config,
    )
    from repro.errors import ConfigurationError

    try:
        config = load_config(
            Path(args.config) if args.config is not None else None
        )
        findings = lint_paths([Path(p) for p in args.paths], config)
    except ConfigurationError as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return 2
    print(
        format_findings(
            findings,
            as_json=args.json,
            show_suppressed=args.show_suppressed,
        )
    )
    return 1 if any(not f.suppressed for f in findings) else 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.failures.campaign import CampaignConfig, run_campaign

    backends: tuple = ()
    if args.backends:
        from repro.shuffle.backends import backend_names

        known = tuple(backend_names())
        backends = tuple(t for t in args.backends.split(",") if t)
        for backend in backends:
            if backend not in known:
                raise SystemExit(
                    f"--backends: unknown backend {backend!r} "
                    f"(choose from: {', '.join(known)})"
                )
    policies: tuple = ()
    if args.policies:
        policies = tuple(t for t in args.policies.split(",") if t)
    schedules = args.schedules
    seed = args.seed
    if args.smoke:
        # CI preset: fixed seed, bounded budget, full oracle + minimizer.
        schedules = 200
        seed = 0
    kwargs = {}
    if policies:
        kwargs["policies"] = policies
    config = CampaignConfig(
        seed=seed,
        schedules=schedules,
        max_wall_seconds=args.max_wall_seconds,
        backends=backends,
        rotate=not args.full_matrix,
        minimize=not args.no_minimize,
        artifact_dir=args.artifact_dir,
        **kwargs,
    )
    try:
        config.validate()
        report = run_campaign(config, jobs=args.jobs)
    except ConfigurationError as error:
        raise SystemExit(str(error)) from None
    print(report.format_summary())
    return 1 if report.findings else 0


def cmd_compare(args: argparse.Namespace) -> int:
    workload = workload_by_name(args.workload)
    plan = _plan(args.seeds)
    rows = []
    for scheme in PAPER_SCHEMES:
        runs = [
            run_workload_once(workload, scheme, seed, plan)
            for seed in plan.seeds
        ]
        jct = sum(r.duration for r in runs) / len(runs)
        traffic = sum(r.cross_dc_megabytes for r in runs) / len(runs)
        rows.append([scheme.value, f"{jct:.1f}", f"{traffic:.1f}"])
    print(format_table(["scheme", "JCT (s)", "cross-DC MB"], rows))
    return 0


def _matrix(args: argparse.Namespace):
    return run_matrix_parallel(
        all_workloads(),
        list(PAPER_SCHEMES),
        _plan(args.seeds),
        jobs=args.jobs,
    )


def cmd_fig7(args: argparse.Namespace) -> int:
    figure = fig7_job_completion_times(_matrix(args))
    rows = []
    for workload, by_scheme in figure.items():
        row = [workload]
        for scheme in PAPER_SCHEMES:
            stats = by_scheme[scheme.value]
            row.append(f"{stats.trimmed:.1f}")
        rows.append(row)
    headers = ["workload"] + [s.value for s in PAPER_SCHEMES]
    print("Fig. 7 — trimmed-mean JCT (s)")
    print(format_table(headers, rows))
    return 0


def cmd_fig8(args: argparse.Namespace) -> int:
    figure = fig8_cross_dc_traffic(_matrix(args))
    headers = ["workload"] + [s.value for s in PAPER_SCHEMES]
    rows = [
        [workload] + [f"{by_scheme.get(s.value, 0):.1f}" for s in PAPER_SCHEMES]
        for workload, by_scheme in figure.items()
    ]
    print("Fig. 8 — cross-DC traffic (MB)")
    print(format_table(headers, rows))
    return 0


def cmd_headline(args: argparse.Namespace) -> int:
    headline = headline_numbers(_matrix(args))
    rows = [
        [
            workload,
            f"{entry['jct_reduction_pct']:.1f}",
            f"{entry.get('traffic_reduction_pct', float('nan')):.1f}",
        ]
        for workload, entry in headline.items()
    ]
    print(format_table(
        ["workload", "JCT reduction %", "traffic reduction %"], rows
    ))
    return 0


def cmd_lineage(args: argparse.Namespace) -> int:
    from repro.experiments.placement import skewed_block_placement
    from repro.experiments.runner import generated_input
    from repro.experiments.schemes import config_for_scheme
    from repro.cluster.context import ClusterContext
    from repro.metrics.reporting import lineage_dump
    from repro.simulation import RandomSource

    workload = workload_by_name(args.workload)
    scheme = _scheme(args.scheme)
    plan = _plan(1)
    config = config_for_scheme(scheme, workload.spec, 0)
    context = ClusterContext(plan.cluster, config)
    partitions = generated_input(workload, 0)
    placement = skewed_block_placement(
        plan.cluster,
        RandomSource(0).child(f"placement:{workload.name}"),
        len(partitions),
    )
    workload.install(context, partitions, placement_hosts=placement)
    rdd = workload.build(context)
    # Apply the backend's lineage rewrite (e.g. implicit transfer_to
    # insertion for push_aggregate) so the dump shows what actually runs.
    rdd = context.shuffle_service.prepare_job(rdd)
    print(lineage_dump(rdd))
    context.shutdown()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Optimizing Shuffle in Wide-Area Data "
            "Analytics' (ICDCS 2017)"
        ),
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const=25,
        type=int,
        default=None,
        metavar="N",
        help="profile the command under cProfile and print the top N "
        "functions by cumulative time (default 25) after the normal "
        "output — pair with the fabric perf counters to localise "
        "simulator hot spots",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one workload/scheme cell")
    run.add_argument("workload")
    run.add_argument("--scheme", default="aggshuffle")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--chaos",
        action="append",
        metavar="SPEC",
        help="timed fault to inject (repeatable): crash:<host>@<t>, "
        "host:<host>@<t>, outage:<dc>@<t>, merger:<dc>@<t>, "
        "shuffle_worker:<dc>@<t>, blob_outage:<dc>@<t>[+<duration>], "
        "degrade:<src_dc>-><dst_dc>@<t>x<factor>[+<duration>], or "
        "partition:<src_dc>-><dst_dc>@<t>[+<duration>]; "
        "random:<n>@<seed> draws n events from the fuzz grammar, "
        "@artifact.json replays a campaign reproducer (DESIGN.md §15)",
    )
    run.add_argument(
        "--blacklist",
        action="store_true",
        help="enable excludeOnFailure-style blacklisting: repeated task "
        "failures exclude the (executor, stage), then the executor, "
        "then its datacenter from placement (timed expiry; DESIGN.md §10)",
    )
    run.add_argument(
        "--flow-retry",
        action="store_true",
        help="enable flow-level retry with per-flow deadlines and WAN "
        "circuit breakers: transient degradations are absorbed by "
        "re-issued flows instead of stage resubmission (DESIGN.md §10)",
    )
    run.add_argument(
        "--sanitize",
        action="store_true",
        help="enable the runtime invariant sanitizer (capacity "
        "conservation, rate sanity, clock monotonicity, ledger/monitor "
        "reconciliation); equivalent to REPRO_SANITIZE=1 (DESIGN.md §13)",
    )
    run.set_defaults(func=cmd_run)

    stream = commands.add_parser(
        "stream",
        help="run a multi-tenant job stream through the inter-job "
        "scheduler on one shared cluster",
    )
    stream.add_argument(
        "--arrival",
        default="poisson:12:50",
        metavar="SPEC",
        help="arrival process: PROCESS:RATE:JOBS[:FACTOR[:FRACTION]] "
        "with PROCESS poisson|bursty, RATE in jobs/min "
        "(default poisson:12:50)",
    )
    stream.add_argument(
        "--tenants",
        default="default",
        metavar="SPEC",
        help="comma-separated tenants: NAME[:WEIGHT[:SHARE]] — WEIGHT "
        "drives the WAN fair share and the fair policy's executor "
        "share, SHARE the arrival mix (default one unit-weight tenant)",
    )
    stream.add_argument(
        "--policy",
        default="fifo",
        help="inter-job admission policy: fifo, fair, sjf, or pack",
    )
    stream.add_argument(
        "--mix",
        default=None,
        help="comma-separated workload specs shaping job sizes "
        "(default: all five Table I specs)",
    )
    stream.add_argument("--scheme", default="aggshuffle")
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--max-concurrent", type=int, default=4)
    stream.add_argument(
        "--sanitize",
        action="store_true",
        help="enable the runtime invariant sanitizer "
        "(see `repro run --help`)",
    )
    stream.set_defaults(func=cmd_stream)

    lint = commands.add_parser(
        "lint",
        help="run the determinism/accounting static analysis "
        "(exit 0 clean, 1 findings, 2 usage error)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    lint.add_argument(
        "--config",
        default=None,
        metavar="PYPROJECT",
        help="pyproject.toml to read [tool.repro-lint] from "
        "(default: search upward from the current directory)",
    )
    lint.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also list findings silenced by pragmas (with their reasons)",
    )
    lint.set_defaults(func=cmd_lint)

    fuzz = commands.add_parser(
        "fuzz",
        help="chaos campaign: coverage-guided fault fuzzing of the "
        "backend x policy matrix under invariant oracles (DESIGN.md §15)",
    )
    fuzz.add_argument(
        "--schedules", type=int, default=50,
        help="schedule budget (default 50)",
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--max-wall-seconds", type=float, default=None,
        help="stop drawing new schedules after this much wall time",
    )
    fuzz.add_argument(
        "--backends", default=None,
        help="comma-separated backends to fuzz (default: all registered)",
    )
    fuzz.add_argument(
        "--policies", default=None,
        help="comma-separated policies: baseline, health, speculate "
        "(default: all three)",
    )
    fuzz.add_argument(
        "--full-matrix", action="store_true",
        help="run every schedule against every backend x policy column "
        "(default: rotate one column per schedule)",
    )
    fuzz.add_argument(
        "--no-minimize", action="store_true",
        help="report raw failing schedules without ddmin minimization",
    )
    fuzz.add_argument(
        "--artifact-dir", default=None, metavar="DIR",
        help="write a replayable JSON artifact per finding "
        "(replay with `repro run --chaos @<artifact>`)",
    )
    fuzz.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the cell matrix "
        "(default: $REPRO_JOBS or sequential)",
    )
    fuzz.add_argument(
        "--smoke", action="store_true",
        help="CI preset: fixed seed 0, 200-schedule budget",
    )
    fuzz.set_defaults(func=cmd_fuzz)

    compare = commands.add_parser(
        "compare", help="compare the three schemes on one workload"
    )
    compare.add_argument("workload")
    compare.add_argument("--seeds", type=int, default=3)
    compare.set_defaults(func=cmd_compare)

    for name, func, help_text in (
        ("fig7", cmd_fig7, "regenerate Fig. 7 (job completion times)"),
        ("fig8", cmd_fig8, "regenerate Fig. 8 (cross-DC traffic)"),
        ("headline", cmd_headline, "the paper's headline reductions"),
    ):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--seeds", type=int, default=10)
        sub.add_argument(
            "--jobs",
            type=int,
            default=None,
            help="worker processes for the run matrix "
            "(default: $REPRO_JOBS or sequential)",
        )
        sub.set_defaults(func=func)

    lineage = commands.add_parser(
        "lineage", help="dump a workload's RDD lineage DAG"
    )
    lineage.add_argument("workload")
    lineage.add_argument("--scheme", default="aggshuffle")
    lineage.set_defaults(func=cmd_lineage)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.profile is None:
        return args.func(args)
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        status = args.func(args)
    finally:
        profiler.disable()
        print(f"\ncProfile — top {args.profile} by cumulative time")
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative")
        stats.print_stats(args.profile)
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
