"""Per-event, per-task and per-job objects die by refcount.

The rule under test (DESIGN.md section 5, "Lifetimes"): nothing on a
per-event, per-task or per-job path forms a reference cycle, and a
cascade plan lets go of its departure timers when it dies or its last
segment fires.  Then CPython frees a finished job's stages, closures,
plans and timers the moment the last reference goes, and the cyclic
collector — which otherwise runs hundreds of times per benchmark round —
finds nothing.

Two checks:

* with the collector disabled, a 40-job Spark stream, a 40-job
  AggShuffle stream and one reduced plan of each ``fabric_churn`` shape
  leave nothing for ``gc.collect()`` — their contexts and fabrics kept
  alive, so only what was meant to die can be counted;
* no nested function under ``src/repro`` refers to itself, directly or
  through its sibling nested functions (a recursive closure is a cycle:
  function -> cell -> function), checked on the AST.
"""

from __future__ import annotations

import ast
import collections
import gc
from pathlib import Path

from benchmarks.e2e.workloads import fabric_plans, run_fabric_plan
from repro.cluster.context import ClusterContext
from repro.config import SimulationConfig
from repro.experiments.runner import ExperimentPlan
from repro.experiments.schemes import Scheme, config_for_scheme
from repro.scheduler.job_scheduler import run_stream
from repro.simulation.random_source import RandomSource
from repro.workloads import workload_by_name
from repro.workloads.arrivals import (
    ArrivalSpec,
    StreamSpec,
    TenantSpec,
    generate_arrivals,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _stream(scheme: Scheme, jobs: int, seed: int) -> ClusterContext:
    """A saturating two-tenant stream, run to its end; returns the
    context (which holds the fabric)."""
    cluster = ExperimentPlan().cluster
    spec = StreamSpec(
        arrival=ArrivalSpec("poisson", 600.0, jobs),
        tenants=(TenantSpec("prod", weight=2.0), TenantSpec("batch", weight=1.0)),
        policy="fair",
        max_concurrent=4,
    )
    arrivals = generate_arrivals(
        spec, cluster.datacenters, RandomSource(seed).child("stream")
    )
    config = config_for_scheme(
        scheme, workload_by_name("wordcount").spec, seed, SimulationConfig()
    )
    context = ClusterContext(cluster, config)
    result = run_stream(context, spec, arrivals)
    context.shutdown()
    assert result.jobs_completed == jobs
    return context


def _play_everything(seed: int) -> list:
    """Run every scenario; returns what must stay alive (contexts and
    fabrics)."""
    kept: list = [
        _stream(Scheme.SPARK, 40, seed),
        _stream(Scheme.AGGSHUFFLE, 40, seed),
    ]
    for plan in fabric_plans(seed, 0.1):
        sim, fabric = run_fabric_plan(plan, "vector")
        assert fabric.active_flow_count == 0 and fabric.completed_flows
        kept.append((sim, fabric))
    return kept


def test_streams_and_fabric_churn_leave_no_cyclic_garbage():
    # Warm-up: first-time imports, lazy modules and caches may leave
    # cyclic garbage of their own; only the steady state is the rule.
    _play_everything(seed=1)
    gc.collect()
    gc.disable()
    try:
        kept = _play_everything(seed=2)
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        census = collections.Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert kept
    assert found == 0, census.most_common(10)


def _recursive_nested_functions(tree: ast.AST):
    """(line, name) of every nested function that can reach itself
    through name references to the nested functions of its outermost
    enclosing function (itself included)."""
    found = []
    for outer in ast.iter_child_nodes(tree):
        scopes = [outer]
        if isinstance(outer, ast.ClassDef):
            scopes = [
                node for node in outer.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
        for scope in scopes:
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nested = {
                node.name: node
                for node in ast.walk(scope)
                if node is not scope
                and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            calls = {
                name: {
                    ref.id for ref in ast.walk(node)
                    if isinstance(ref, ast.Name) and ref.id in nested
                }
                for name, node in nested.items()
            }
            for name, node in nested.items():
                seen, todo = set(), list(calls[name])
                while todo:
                    current = todo.pop()
                    if current not in seen:
                        seen.add(current)
                        todo.extend(calls[current])
                if name in seen:
                    found.append((node.lineno, name))
    return sorted(found)


def test_no_nested_function_under_src_recurses():
    offenders = {
        str(path.relative_to(SRC)): hits
        for path in sorted(SRC.rglob("*.py"))
        if (hits := _recursive_nested_functions(ast.parse(path.read_text())))
    }
    assert offenders == {}


def test_the_recursion_check_catches_self_and_mutual_recursion():
    source = (
        "def walk(node):\n"
        "    def visit(n):\n"
        "        for child in n:\n"
        "            visit(child)\n"
        "    visit(node)\n"
        "class C:\n"
        "    def build(self):\n"
        "        def a():\n"
        "            b()\n"
        "        def b():\n"
        "            a()\n"
        "        def leaf():\n"
        "            return a\n"
        "        return leaf\n"
    )
    assert _recursive_nested_functions(ast.parse(source)) == [
        (2, "visit"), (8, "a"), (10, "b"),
    ]
