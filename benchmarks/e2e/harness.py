"""One measured run of one workload, in this process.

Set-up (import, input generation, one cluster build, a warm-up op) is
repeated and its median reported as ``setup_s``; the timed phase then
plays the workload's rounds back to back from this one thread (closed
loop).  ``--trace 0`` times the rounds bare and reports the end-to-end
metrics; ``--trace 1`` times one bare baseline round, then replays the
first rounds under ``cProfile`` and reports the per-layer metrics.
Host time and simulated time are never mixed in one metric.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy

import repro
from repro.simulation import Simulator

from benchmarks.e2e import layers, metrics, workloads

# Set-up is measured this many times per run; the median is reported.
SETUP_REPEATS = 3
# Rounds replayed under cProfile by a traced run (profiling costs 2-5x).
TRACED_ROUNDS = 2

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - t)"
)


class SimulatorLog:
    """Registers every ``Simulator`` built while installed.

    The only way to read ``processed_events`` and the final clock of
    simulators that public entry points (``run_workload_once``,
    ``run_campaign``) build and drop internally.  Wraps
    ``Simulator.__init__`` from here; nothing in ``src/`` changes.
    """

    def __init__(self) -> None:
        self._simulators: List[Simulator] = []
        self._original = None

    def __enter__(self) -> "SimulatorLog":
        original = Simulator.__init__
        simulators = self._simulators

        @functools.wraps(original)
        def registering_init(sim, *args, **kwargs):
            original(sim, *args, **kwargs)
            simulators.append(sim)

        self._original = original
        Simulator.__init__ = registering_init
        return self

    def __exit__(self, *_exc) -> None:
        Simulator.__init__ = self._original
        self._simulators.clear()

    def drain(self) -> List[Tuple[int, float]]:
        """(processed events, final simulated time) of every simulator
        built since the last drain; forgets them."""
        seen = [(sim.processed_events, sim.now) for sim in self._simulators]
        self._simulators.clear()
        return seen


def measure_import(samples: int = SETUP_REPEATS) -> List[float]:
    """Seconds ``import repro.cli`` takes in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(REPRO_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def _timed(fn, *args) -> Tuple[float, Any]:
    started = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - started, value


def measure_setup(
    workload: workloads.Workload, seed: int, rounds: int, scale: float
) -> Tuple[Dict[str, float], Any]:
    """Median set-up spans over ``SETUP_REPEATS`` full set-ups, and the
    generated inputs."""
    spans: Dict[str, List[float]] = {
        "cli.import_s": measure_import(),
        "workloads.generate_s": [],
        "cluster.build_s": [],
        "experiments.warmup_s": [],
        "setup_local_s": [],
    }
    inputs = None
    for _ in range(SETUP_REPEATS):
        generate_s, inputs = _timed(workload.generate, seed, rounds, scale)
        build_s, _ = _timed(workload.build)
        warmup_s, _ = _timed(workload.warmup, inputs)
        spans["workloads.generate_s"].append(generate_s)
        spans["cluster.build_s"].append(build_s)
        spans["experiments.warmup_s"].append(warmup_s)
        spans["setup_local_s"].append(generate_s + build_s + warmup_s)
    medians = {name: statistics.median(values) for name, values in spans.items()}
    medians["setup_s"] = medians["cli.import_s"] + medians.pop("setup_local_s")
    return medians, inputs


def _play_round(
    workload: workloads.Workload,
    inputs: Any,
    index: int,
    sim_log: SimulatorLog,
    profile: Optional[cProfile.Profile] = None,
) -> Tuple[float, float, workloads.RoundResult]:
    """Run one round; returns (wall, cpu, result with simulator counts)."""
    gc.collect()
    sim_log.drain()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if profile is not None:
        profile.enable()
    try:
        result = workload.run_round(inputs, index)
    finally:
        if profile is not None:
            profile.disable()
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    simulators = sim_log.drain()
    result.counts["simulation.events"] = float(
        sum(events for events, _ in simulators)
    )
    result.counts["simulation.sim_seconds"] = float(
        sum(now for _, now in simulators)
    )
    if workload.op_duration_is_simulator_clock:
        result.sim_durations = [now for _, now in simulators]
    return wall, cpu, result


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _check_rounds(results: Sequence[workloads.RoundResult]) -> List[str]:
    errors = [error for result in results for error in result.errors]
    for index, result in enumerate(results):
        if not result.digest and not result.errors:
            errors.append(f"round {index} produced no sim_digest")
        if result.ops < 1:
            errors.append(f"round {index} attempted no ops")
    return errors


def run_digest(round_digests: Sequence[str]) -> str:
    return hashlib.sha256("".join(round_digests).encode()).hexdigest()


def end_to_end_metrics(
    setup: Dict[str, float],
    walls: Sequence[float],
    cpus: Sequence[float],
    results: Sequence[workloads.RoundResult],
) -> Dict[str, float]:
    durations = [d for result in results for d in result.sim_durations]
    wall = statistics.median(walls)
    ops_per_round = sum(result.ops for result in results) / len(results)
    return {
        "wall_s": wall,
        "cpu_s": statistics.median(cpus),
        "throughput_ops_s": ops_per_round / wall,
        "setup_s": setup["setup_s"],
        "sim_jct_mean_s": _ratio(sum(durations), len(durations)),
    }


def per_layer_metrics(
    setup: Dict[str, float],
    baseline_wall: float,
    baseline: workloads.RoundResult,
    traced_walls: Sequence[float],
    results: Sequence[workloads.RoundResult],
    profile: cProfile.Profile,
) -> Dict[str, float]:
    out = {name: 0.0 for name in metrics.PER_LAYER_NAMES}
    folded, sanitizer_checks = layers.fold(profile.getstats(), REPRO_DIR)
    for layer, (self_s, calls) in folded.items():
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.calls"] = float(calls)
    traced_total = sum(self_s for self_s, _ in folded.values())
    out["trace.overhead_ratio"] = _ratio(
        statistics.median(traced_walls), baseline_wall
    )
    out["trace.coverage"] = 1.0 - _ratio(folded["harness"][0], traced_total)
    for name in (
        "cli.import_s",
        "workloads.generate_s",
        "cluster.build_s",
        "experiments.warmup_s",
    ):
        out[name] = setup[name]
    out.update(baseline.spans)

    counts: Dict[str, float] = {}
    for result in results:
        workloads.add_counts(counts, result.counts)
    # Counts keyed by a metric name are that metric; ``raw.*`` keys only
    # feed the ratios below.
    out.update((key, value) for key, value in counts.items() if key in out)
    get = counts.get
    out["simulation.us_per_event"] = 1e6 * _ratio(
        baseline_wall, baseline.counts["simulation.events"]
    )
    out["network.flows_touched_per_flow"] = _ratio(
        get("network.flows_touched", 0.0), get("network.flows", 0.0)
    )
    hits, misses = get("raw.route_hits", 0.0), get("raw.route_misses", 0.0)
    out["network.route_cache_hit_ratio"] = _ratio(hits, hits + misses)
    out["failures.chaos_applied_ratio"] = _ratio(
        get("failures.chaos_applied", 0.0), get("raw.chaos_drawn", 0.0)
    )
    out["analysis.sanitizer_checks"] = float(sanitizer_checks)

    # ru_maxrss is kilobytes on Linux.
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    ops = sum(result.ops for result in results)
    out["failed_op_ratio"] = _ratio(sum(r.failed for r in results), ops)
    out["sim_jct_p95_s"] = max(result.sim_p95_s for result in results)
    out["sim_wan_mb"] = sum(result.sim_wan_mb for result in results)
    for name in ("agg_jct_reduction_pct", "agg_wan_reduction_pct"):
        values = [r.results[name] for r in results if name in r.results]
        out[name] = _ratio(sum(values), len(values))
    return out


def environment() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "hashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "loadavg_1m": os.getloadavg()[0],
    }


def run(
    workload_name: str, seed: int, seconds: float, trace: bool, scale: float
) -> Dict[str, Any]:
    """Measure one run; returns the full report (``result`` is the
    object the benchmark contract wants on the last line)."""
    env = environment()
    workload = workloads.all_workloads()[workload_name]
    rounds = max(1, round(seconds / workload.nominal_round_s))
    setup, inputs = measure_setup(workload, seed, rounds, scale)

    walls: List[float] = []
    cpus: List[float] = []
    results: List[workloads.RoundResult] = []
    errors: List[str] = []
    with SimulatorLog() as sim_log:

        def play(count: int, profile: Optional[cProfile.Profile] = None) -> None:
            for index in range(count):
                wall, cpu, result = _play_round(
                    workload, inputs, index, sim_log, profile
                )
                walls.append(wall)
                cpus.append(cpu)
                results.append(result)

        if not trace:
            play(rounds)
            values = end_to_end_metrics(setup, walls, cpus, results)
        else:
            baseline_wall, _cpu, baseline = _play_round(
                workload, inputs, 0, sim_log
            )
            profile = cProfile.Profile()
            play(min(rounds, TRACED_ROUNDS), profile)
            errors += _check_rounds([baseline])
            if baseline.digest != results[0].digest:
                errors.append(
                    "round 0 sim_digest differs between the bare and the "
                    "profiled replay: profiling perturbed the simulation"
                )
            values = per_layer_metrics(
                setup, baseline_wall, baseline, walls, results, profile
            )

    errors += _check_rounds(results)
    attempted = sum(result.ops for result in results)
    failed = sum(result.failed for result in results)
    round_digests = [result.digest for result in results]
    env["loadavg_1m_end"] = os.getloadavg()[0]
    env["noisy"] = max(env["loadavg_1m"], env["loadavg_1m_end"]) > (
        (env["nproc"] or 1) - 0.5
    )
    return {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "trace": int(trace),
        "rounds": len(results),
        "round_wall_s": walls,
        "round_cpu_s": cpus,
        "round_digests": round_digests,
        "sim_digest": run_digest(round_digests),
        "errors": errors,
        "env": env,
        "result": {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": metrics.UNITS[name]}
                for name, value in values.items()
            },
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py", description=__doc__
    )
    parser.add_argument(
        "--workload", required=True, choices=metrics.WORKLOAD_NAMES
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=workloads.SCALE,
        help="ops per round relative to the calibrated size "
        "(the aggregate command's --smoke passes SCALE / 10)",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="also print the full run report as a JSON line "
        "(what `python -m benchmarks.e2e` aggregates)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be > 0")

    report = run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    for error in report["errors"]:
        print(f"CHECK FAILED [{args.workload}]: {error}", file=sys.stderr)
    if args.report:
        print(json.dumps({"report": report}))
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1
