"""Call reach: every def under ``src/repro`` is one that the program calls.

The module and parameter gates (``tests/test_import_graph.py``,
``tests/test_config.py``) see modules and arguments, not functions.
This gate runs every command, scheme, chaos kind and example, the table
list at check size and one round of each end-to-end workload, all in one
process under a profile hook, and matches the code objects it entered
against every ``def`` under ``src/repro`` (methods and nested defs
count).  A def the sweep never enters is deleted, moved to the code
that needs it, or pinned in ``UNCALLED_DEFS`` with who needs it; a pin
whose def is gone or now reached is stale.  Exempt by rule: the dunders
Python calls implicitly (``IMPLICIT_DUNDERS``) and stubs whose whole
body is ``raise NotImplementedError``.

    PYTHONPATH=src:. python -m tests.reach_sweep

exits 0, or 1 after listing each finding (a few minutes on two cores).
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import threading
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

# Defs the sweep does not reach, and who needs each.
_FINDING = "runs only when a fuzz campaign finds a violation (tests/failures)"
_POOL = "pool-worker entry point: CI's pooled fig7 step runs it (--jobs 2)"
_ORACLE = (
    "test oracle; moves to tests/ with ROADMAP item 7 PR B, after item 7 "
    "PR A's benchmark change"
)
_FAILURE = "failure path: the test that trips it on purpose needs it"
_LABEL = "names an event in a misuse error or a repr (tests/simulation)"
_REDUCER = "reducer-failure injection waits for its experiment (ROADMAP 9)"
_RELEASE = "frees a finished shuffle: ROADMAP item 2(b) gives it a caller"
_SIZER = (
    "natural_size's dispatch for records no workload emits (bare str, dict, "
    "subclasses), which user programs do (tests/rdd)"
)
UNCALLED_DEFS: Dict[str, str] = {
    # Reached only on a finding.
    "repro.failures.campaign:Finding.reproducer_specs": _FINDING,
    "repro.failures.campaign:_minimize_finding": _FINDING,
    "repro.failures.campaign:_minimize_finding.<locals>.still_fails": _FINDING,
    "repro.failures.campaign:build_artifact": _FINDING,
    "repro.failures.minimize:MinimizationResult.events": _FINDING,
    "repro.failures.minimize:MinimizationResult.events_removed": _FINDING,
    "repro.failures.minimize:_Prober.__call__": _FINDING,
    "repro.failures.minimize:_Prober.__init__": _FINDING,
    "repro.failures.minimize:_ddmin": _FINDING,
    "repro.failures.minimize:_split": _FINDING,
    "repro.failures.minimize:_try_shrink_field": _FINDING,
    "repro.failures.minimize:_try_shrink_field.<locals>.with_value": _FINDING,
    "repro.failures.minimize:minimize_schedule": _FINDING,
    # Run in pool workers, which this one-process sweep never starts.
    "repro.experiments.runner:_run_cell": _POOL,
    "repro.experiments.runner:_worker_workload": _POOL,
    # Interpreter-specific.
    "repro.analysis.engine:_parse_lint_section_fallback":
        "reads [tool.repro-lint] on Python 3.10, which has no tomllib",
    # Oracles the tests compare the engine with.
    "repro.network.fabric:NetworkFabric.active_flows":
        "the in-flight set, charged up to now: the tests compare its rates "
        "with the solvers' and find orphaned flows (tests/network, "
        "tests/shuffle)",
    "repro.network.fabric:NetworkFabric.solver_inputs": _ORACLE,
    "repro.network.fair_share:_weighted_max_min_fair_rates": _ORACLE,
    "repro.network.fair_share:verify_allocation": _ORACLE,
    "repro.network.incremental:IncrementalFairShare.solver_weights": _ORACLE,
    "repro.network.vector_solver:max_min_fair_rates_numpy": _ORACLE,
    "repro.network.vector_solver:progressive_fill": _ORACLE,
    "repro.workloads.naive_bayes:NaiveBayes.reference_result": _ORACLE,
    "repro.workloads.naive_bayes:NaiveBayes.result_to_totals": _ORACLE,
    "repro.workloads.pagerank:PageRank.reference_result": _ORACLE,
    "repro.workloads.pagerank:PageRank.result_to_ranks": _ORACLE,
    "repro.workloads.sort:Sort.reference_result": _ORACLE,
    "repro.workloads.terasort:TeraSort.reference_result": _ORACLE,
    "repro.workloads.wordcount:WordCount.reference_result": _ORACLE,
    "repro.workloads.wordcount:WordCount.result_to_counts": _ORACLE,
    # Failure paths.
    "repro.analysis.engine:known_rules": _FAILURE,
    "repro.errors:StageRecoveryError.__init__": _FAILURE,
    "repro.errors:TaskFailedError.__init__": _FAILURE,
    "repro.failures.health:BlacklistTracker._check_escalation": _FAILURE,
    "repro.failures.health:BlacklistTracker.exclude_host": _FAILURE,
    "repro.failures.health:BlacklistTracker.note_task_failure": _FAILURE,
    "repro.failures.health:LinkHealthMonitor.state": _FAILURE,
    "repro.metrics.collectors:MetricsCollector.on_task_attempt_failed": _FAILURE,
    "repro.rdd.memo:DataMemo._name": _FAILURE,
    "repro.simulation.event:Event.error": _FAILURE,
    "repro.simulation.event:Timeout.fail": _FAILURE,
    "repro.simulation.event:Timeout.succeed": _FAILURE,
    "repro.network.fabric:FlowCompletion._label": _LABEL,
    "repro.simulation.event:Event._label": _LABEL,
    "repro.simulation.event:Timeout._label": _LABEL,
    "repro.failures.injector:task_key": _REDUCER,
    "repro.simulation.random_source:RandomSource.chance": _REDUCER,
    # General API that no command's program happens to reach.
    "repro.analysis.rules:_SetIterationVisitor.visit_AsyncFunctionDef":
        "lints an async def's scope; no module here has one (tests/analysis)",
    "repro.rdd.aggregator:_concatenate":
        "merges two groupByKey combiners of one key (tests/rdd)",
    "repro.rdd.size_estimator:SizedRecord.__eq__":
        "value equality beside __hash__; the tests compare results with ==",
    "repro.rdd.size_estimator:_item_size": _SIZER,
    "repro.rdd.size_estimator:_ladder_size": _SIZER,
    "repro.rdd.size_estimator:_mapping_size": _SIZER,
    "repro.rdd.size_estimator:_text_size": _SIZER,
    "repro.simulation.event:Timeout.cancel":
        "lazy cancel of a Timeout, which the agenda drops when it comes due "
        "as it does a cancelled TimerHandle (tests/simulation)",
    # Picked up by a later roadmap item.
    "repro.core.analysis:aggregation_benefit": "gains a reader in ROADMAP item 10",
    "repro.core.analysis:shard_matrix": "gains a reader in ROADMAP item 10",
    "repro.failures.grammar:ChaosUniverse.from_context":
        "ROADMAP item 3(f) draws schedules from a live context",
    "repro.shuffle.backends.pre_merge:PreMergeBackend.remove_shuffle": _RELEASE,
    "repro.shuffle.map_output_tracker:MapOutputTracker.unregister_shuffle": _RELEASE,
    "repro.shuffle.service:ShuffleBackend.remove_shuffle": _RELEASE,
    "repro.shuffle.stores:TransferTracker.remove_transfer": _RELEASE,
}

# Called by the interpreter on a path no sweep drives (a debugger's
# repr, a dict key's hash, ``len()`` in an assertion, ``dir()``).
IMPLICIT_DUNDERS = frozenset({"__repr__", "__hash__", "__len__", "__dir__"})

Key = Tuple[str, int]


def _is_stub(node: ast.AST) -> bool:
    """A def whose whole body (after its docstring) is ``raise
    NotImplementedError``."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    raised = body[0].exc
    if isinstance(raised, ast.Call):
        raised = raised.func
    return isinstance(raised, ast.Name) and raised.id == "NotImplementedError"


def defined_functions(package: Path) -> Dict[Key, str]:
    """(file, first line) -> ``module:Qualified.name`` for every def under
    ``package`` but the exempt ones.  The first line is the first
    decorator's, which is where a decorated function's code starts."""
    defs = {}
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        filename = os.path.realpath(path)
        pending = [(node, "") for node in ast.parse(path.read_text("utf-8")).body]
        while pending:
            node, prefix = pending.pop()
            if isinstance(node, ast.ClassDef):
                name = f"{prefix}{node.name}."
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{node.name}.<locals>."
                exempt = node.name in IMPLICIT_DUNDERS or _is_stub(node)
                if not exempt:
                    first = node.decorator_list[0] if node.decorator_list else node
                    defs[filename, first.lineno] = f"{module}:{prefix}{node.name}"
            else:
                name = prefix
            pending.extend((child, name) for child in ast.iter_child_nodes(node))
    return defs


def reached_code(sweep: Callable[[], None]) -> Set[Key]:
    """(file, first line) of every code object entered while ``sweep``
    runs, on any thread."""
    entered: Set[Key] = set()

    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        sweep()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    real = {name: os.path.realpath(name) for name, _ in entered}
    return {(real[name], line) for name, line in entered}


def uncalled_defs(
    package: Path, sweep: Callable[[], None], pins: Mapping[str, str]
) -> List[str]:
    """One line per finding: a def ``sweep`` never enters that is not
    pinned, and a pin whose def is gone or reached."""
    defs = defined_functions(package)
    reached = reached_code(sweep)
    uncalled = {name for key, name in defs.items() if key not in reached}
    findings = [
        f"uncalled: {name}" for name in sorted(uncalled) if name not in pins
    ]
    for name in sorted(pins):
        if name not in defs.values():
            findings.append(f"stale pin (no such def): {name}")
        elif name not in uncalled:
            findings.append(f"stale pin (reached): {name}")
    return findings


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
# (workload, scheme, spec) for each chaos kind, on a scheme it acts on.
CHAOS = (
    ("sort", "spark", "crash:us-east-1-w0@5"),
    ("wordcount", "spark", "host:us-east-1-w0@5"),
    ("wordcount", "spark", "outage:eu-central-1@8"),
    ("sort", "premerge", "merger:us-west-1@6"),
    ("sort", "remoteshuffle", "shuffle_worker:us-west-1@20"),
    ("sort", "blobshuffle", "blob_outage:us-east-1@4+10"),
    ("sort", "aggshuffle", "degrade:us-east-1->us-west-1@2x0.1+20"),
    ("sort", "aggshuffle", "partition:us-east-1->us-west-1@5+10"),
)
CORPUS_ARTIFACT = ROOT / "tests" / "failures" / "corpus" / "partition-crash-fetch.json"
STREAM = ["stream", "--arrival", "poisson:60:40", "--tenants", "prod:2,batch:1"]


def _command(*argv: str) -> None:
    from repro.analysis import sanitizer
    from repro.cli import main

    try:
        main(list(argv))
    finally:
        sanitizer.disable()


def sweep() -> None:
    """Every command, scheme, chaos kind and example, the tables at check
    size and one round of each end-to-end workload, serially."""
    from repro.cli import SCHEMES, WORKLOADS

    for workload in WORKLOADS:
        for scheme in SCHEMES:
            _command("run", workload, "--scheme", scheme)
    for workload, scheme, spec in CHAOS:
        _command("run", workload, "--scheme", scheme, "--chaos", spec)
        _command("run", workload, "--scheme", scheme, "--chaos", spec,
                 "--blacklist", "--flow-retry")
    _command("run", "sort", "--scheme", "spark", "--chaos", "random:2@5",
             "--blacklist", "--flow-retry", "--sanitize")
    _command("run", "sort", "--scheme", "spark", "--chaos", f"@{CORPUS_ARTIFACT}",
             "--flow-retry")
    for policy in ("fifo", "fair", "pack", "sjf"):
        _command(*STREAM, "--policy", policy, "--sanitize")
    _command("stream", "--arrival", "bursty:30:40", "--policy", "fair")
    _command("fuzz", "--schedules", "40", "--jobs", "1")
    _command("lint", str(PACKAGE))
    _command("lint", str(ROOT / "benchmarks"))
    _command("lint", "--json", str(ROOT / "benchmarks"))
    for workload in WORKLOADS:
        _command("lineage", workload)
    _command("compare", "sort", "--seeds", "1")
    for figure in ("fig7", "fig8", "headline"):
        _command(figure, "--seeds", "1", "--jobs", "1")
    for example in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(example), run_name="__main__")

    from benchmarks import tables
    from benchmarks.e2e import workloads

    # Its exit status is not this gate's: engine_micro's crossover check
    # times plain Python against numpy, which a profile hook slows
    # unevenly.  CI checks the tables unhooked.
    tables.main(["--check"])
    for workload in workloads.all_workloads().values():
        inputs = workload.generate(0, 1, 0.1)
        workload.build()
        workload.warmup(inputs)
        workload.run_round(inputs, 0)


def main() -> int:
    os.environ["REPRO_JOBS"] = "1"
    output = io.StringIO()
    try:
        with contextlib.redirect_stdout(output):
            findings = uncalled_defs(PACKAGE, sweep, UNCALLED_DEFS)
    except BaseException:
        sys.stderr.write(output.getvalue()[-4000:])
        raise
    assert all(UNCALLED_DEFS.values()), "every pin says who needs it"
    for finding in findings:
        print(finding)
    print(f"{len(findings)} finding(s), {len(UNCALLED_DEFS)} pin(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
