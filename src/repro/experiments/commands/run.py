"""``repro run``: one workload x scheme cell, with optional timed
faults (``--chaos``) and health policies."""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.cli import usage_errors
from repro.errors import ReproError
from repro.experiments.commands import (
    arm_sanitizer,
    print_sanitizer_report,
    scheme_by_name,
)


def add_arguments(commands) -> None:
    run = commands.add_parser("run", help="run one workload/scheme cell")
    run.add_argument("workload")
    run.add_argument("--scheme", default="aggshuffle")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--chaos", action="append", metavar="SPEC",
        help="timed fault to inject (repeatable): crash:<host>@<t>, "
        "host:<host>@<t>, outage:<dc>@<t>, merger:<dc>@<t>, "
        "shuffle_worker:<dc>@<t>, blob_outage:<dc>@<t>[+<duration>], "
        "degrade:<src_dc>-><dst_dc>@<t>x<factor>[+<duration>], or "
        "partition:<src_dc>-><dst_dc>@<t>[+<duration>]; "
        "random:<n>@<seed> draws n events from the fuzz grammar, "
        "@artifact.json replays a campaign reproducer (DESIGN.md §15)",
    )
    run.add_argument(
        "--blacklist", action="store_true",
        help="enable excludeOnFailure-style blacklisting: repeated task "
        "failures exclude the (executor, stage), then the executor, "
        "then its datacenter from placement (timed expiry; DESIGN.md §10)",
    )
    run.add_argument(
        "--flow-retry", action="store_true",
        help="enable flow-level retry with per-flow deadlines; also arms "
        "the WAN circuit breakers, which learn from the deadline misses "
        "and steer re-issued flows off a sick path, so transient "
        "degradations are absorbed instead of resubmitting stages "
        "(DESIGN.md §10)",
    )
    run.add_argument(
        "--sanitize", action="store_true",
        help="enable the runtime invariant sanitizer (capacity "
        "conservation, rate sanity, clock monotonicity, every landed "
        "byte keyed and tenanted); equivalent to REPRO_SANITIZE=1 (DESIGN.md §13)",
    )
    run.set_defaults(func=cmd_run)


def _random_specs(token: str, cluster) -> List[str]:
    """``random:<n>@<seed>``: a seeded schedule drawn from the weighted
    fuzz grammar over ``cluster``'s hosts/DCs/WAN pairs."""
    from repro.failures.grammar import (
        ChaosUniverse,
        GrammarConfig,
        parse_random_token,
        random_schedule,
        schedule_to_specs,
    )
    from repro.simulation.random_source import RandomSource

    events, seed = parse_random_token(token)
    schedule = random_schedule(
        RandomSource(seed).child("cli:random"),
        ChaosUniverse.from_spec(cluster),
        GrammarConfig(events=events, window=(1.0, 30.0)),
    )
    return schedule_to_specs(schedule)


def _artifact_specs(path: str) -> List[str]:
    """``@artifact.json``: the schedule of a campaign reproducer."""
    from repro.failures.campaign import load_artifact_schedule
    from repro.failures.grammar import schedule_to_specs

    return schedule_to_specs(load_artifact_schedule(path))


def _expand_chaos_specs(tokens: List[str], cluster) -> List[str]:
    """Expand ``random:`` and ``@`` chaos tokens into plain event specs;
    other tokens pass through untouched, and load neither the fuzz
    grammar nor the campaign.  Malformed tokens exit naming the token,
    like the rest of the grammar."""
    expanded: List[str] = []
    with usage_errors():
        for token in tokens:
            if token.startswith("random:"):
                expanded.extend(_random_specs(token, cluster))
            elif token.startswith("@"):
                expanded.extend(_artifact_specs(token[1:]))
            else:
                expanded.append(token)
    return expanded


def _base_config(chaos_specs: Optional[List[str]], health):
    """The cell's config when faults or health policies were asked for
    (``None``: the scheme's own)."""
    if not chaos_specs and health is None:
        return None
    from repro.config import SimulationConfig
    from repro.failures.chaos import ChaosSchedule

    replication = 1
    schedule = None
    if chaos_specs:
        with usage_errors():
            schedule = ChaosSchedule.from_specs(chaos_specs)
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
    return base_config


def cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.runner import ExperimentPlan, run_workload_once
    from repro.workloads import workload_by_name

    sanitizer = arm_sanitizer(args)
    workload = workload_by_name(args.workload)
    scheme = scheme_by_name(args.scheme)
    if args.chaos:
        args.chaos = _expand_chaos_specs(args.chaos, ExperimentPlan().cluster)
    health = None
    if args.blacklist or args.flow_retry:
        from repro.config import HealthConfig

        health = HealthConfig(
            blacklist_enabled=args.blacklist,
            flow_retry_enabled=args.flow_retry,
        )
    plan = ExperimentPlan(
        seeds=(0,), base_config=_base_config(args.chaos, health)
    )
    try:
        result = run_workload_once(workload, scheme, args.seed, plan)
    except ReproError as error:
        # A job the faults defeat (e.g. every replica of an input block
        # lost) is an outcome of the run, not a crash of the command.
        raise SystemExit(
            f"job failed: {type(error).__name__}: {error}"
        ) from None
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
    if result.injected_failures_total:
        print(
            "  fault injection : "
            f"{result.injected_failures_total} attempt failure(s) injected"
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
    print_sanitizer_report(sanitizer)
    return 0
