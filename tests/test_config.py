"""Configuration objects: validation and derived helpers."""

import ast
import dataclasses
import inspect
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.config import (
    CostModel,
    FailureConfig,
    ShuffleConfig,
    SimulationConfig,
    backend_config,
)
from repro.errors import ConfigurationError
from repro.scheduler import dag_scheduler, task_runner
from repro.scheduler.task_scheduler import COMPUTE_WAITS, RECEIVER_WAITS

ROOT = Path(__file__).resolve().parent.parent


def test_cost_model_times():
    cost = CostModel(cpu_bytes_per_second=10e6)
    assert cost.compute_time(10e6) == pytest.approx(1.0)
    assert cost.sort_time(10e6) == pytest.approx(1.2)
    assert cost.combine_time(10e6) == pytest.approx(0.3)
    assert cost.shuffle_write_time(10e6) == pytest.approx(0.2)


def test_cost_model_rejects_negative():
    with pytest.raises(ValueError):
        CostModel().compute_time(-1)


def test_shuffle_config_validation():
    with pytest.raises(ConfigurationError):
        ShuffleConfig(aggregation_subset_size=0).validate()
    ShuffleConfig(backend="push_aggregate").validate()


def test_simulation_config_validation():
    with pytest.raises(ConfigurationError):
        dataclasses.replace(SimulationConfig(), cores_per_host=0).validate()
    with pytest.raises(ConfigurationError):
        dataclasses.replace(SimulationConfig(), scale_factor=0).validate()
    SimulationConfig().validate()


def test_fetch_and_agg_presets():
    fetch = backend_config("fetch", seed=5)
    assert fetch.shuffle == ShuffleConfig()
    assert fetch.seed == 5
    assert backend_config("push_aggregate").shuffle.backend == "push_aggregate"


def test_with_helpers_do_not_mutate():
    base = SimulationConfig()
    reseeded = base.with_seed(9)
    assert base.seed == 0 and reseeded.seed == 9
    reshuffled = base.with_shuffle(ShuffleConfig(backend="push_aggregate"))
    assert base.shuffle.backend == "fetch"
    assert reshuffled.shuffle.backend == "push_aggregate"


def test_default_scheduling_values_documented():
    assert dag_scheduler.REDUCER_PREF_FRACTION == pytest.approx(0.2)
    assert task_runner.MAX_TASK_ATTEMPTS >= 1
    assert RECEIVER_WAITS[1] > COMPUTE_WAITS[1]
    assert dag_scheduler.SPECULATION_MULTIPLIER >= 1
    assert 0 < dag_scheduler.SPECULATION_QUANTILE <= 1
    assert dag_scheduler.SPECULATION_INTERVAL > 0


def test_failure_config_defaults_off():
    assert FailureConfig().reducer_failure_probability == 0.0


def _config_classes():
    import repro.config as config_module

    return [
        value for value in vars(config_module).values()
        if dataclasses.is_dataclass(value)
        and value.__module__ == config_module.__name__
    ]


def test_every_config_field_is_read():
    """A settable value that nothing reads is a dead knob: each field of
    the config dataclasses is read as an attribute somewhere under
    ``src/repro``, not counting the ``__post_init__`` / ``validate``
    checks of the value itself."""
    import repro.config as config_module

    read = set()
    for path in Path(config_module.__file__).parent.rglob("*.py"):
        pending = [ast.parse(path.read_text(encoding="utf-8"))]
        while pending:
            node = pending.pop()
            if isinstance(node, ast.FunctionDef) and node.name in (
                "__post_init__", "validate",
            ):
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            pending.extend(ast.iter_child_nodes(node))
    classes = _config_classes()
    assert len(classes) == 6
    unread = [
        f"{cls.__name__}.{field.name}"
        for cls in classes
        for field in dataclasses.fields(cls)
        if field.name not in read
    ]
    assert unread == []


# The classes the reach guard covers beyond the config dataclasses: the
# plan and spec dataclasses (their fields) and the components a context
# assembles (their ``__init__`` parameters).
REACH_CLASSES = (
    "repro.experiments.runner:ExperimentPlan",
    "repro.cluster.builder:ClusterSpec",
    "repro.failures.campaign:CampaignConfig",
    "repro.failures.grammar:GrammarConfig",
    "repro.cluster.context:ClusterContext",
    "repro.network.fabric:NetworkFabric",
    "repro.scheduler.task_scheduler:TaskScheduler",
    "repro.failures.injector:FailureInjector",
    "repro.network.jitter:BandwidthJitter",
    "repro.simulation.kernel:Simulator",
)

# Settable values that no code outside the tests sets, and who needs
# each to stay settable.
UNSET_OUTSIDE_TESTS = {
    "JitterSpec.period": "part of the WAN fluctuation model, beside low/high",
    "JitterSpec.max_step_fraction":
        "part of the WAN fluctuation model, beside low/high",
    "FailureConfig.reducer_failure_probability":
        "reducer-failure injection waits for its experiment (ROADMAP 9)",
    "FailureConfig.max_injected_failures_per_task":
        "reducer-failure injection waits for its experiment (ROADMAP 9)",
    "SimulationConfig.cores_per_host": "the cluster's shape, not a policy",
    "ExperimentPlan.cluster":
        "tests shrink the cluster under a figure's run matrix",
    "ClusterContext.straggler_model":
        "the speculation and campaign tests install a slow-attempt fake",
    "Simulator.timer_granularity":
        "the timer wheel's bucket-edge tests pick the bucket width",
}


def _settable(cls) -> List[str]:
    """What a caller of ``cls`` may set, in positional order: a
    dataclass's init fields, or any other class's ``__init__``
    parameters."""
    if dataclasses.is_dataclass(cls):
        return [field.name for field in dataclasses.fields(cls) if field.init]
    parameters = list(inspect.signature(cls.__init__).parameters.values())[1:]
    return [
        parameter.name for parameter in parameters
        if parameter.kind in (parameter.POSITIONAL_OR_KEYWORD,
                              parameter.KEYWORD_ONLY)
    ]


def reach_findings(
    classes: Sequence[type],
    tops: Sequence[Path],
    pinned: Dict[str, str],
    wrappers: Optional[Dict[str, str]] = None,
) -> Tuple[List[str], List[str]]:
    """The settable values of ``classes`` (as ``Class.name``) that no
    call under ``tops`` passes and no entry of ``pinned`` covers, and the
    pins of values some call does pass.  A call passes a value
    positionally or as a keyword to the class itself, or as a keyword to
    ``dataclasses.replace`` or to a ``wrappers`` function (function name
    -> the class it forwards its keywords to).  A field holding a nested
    config object is checked through that object's own fields."""
    values = {cls.__name__: _settable(cls) for cls in classes}
    callees = {name: [name] for name in values}
    callees["replace"] = [
        cls.__name__ for cls in classes if dataclasses.is_dataclass(cls)
    ]
    for function, owner in (wrappers or {}).items():
        callees[function] = [owner]
    nested = {
        f"{cls.__name__}.{field.name}"
        for cls in classes if dataclasses.is_dataclass(cls)
        for field in dataclasses.fields(cls)
        if dataclasses.is_dataclass(field.default_factory)
    }
    found = set()
    for top in tops:
        for path in top.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                for owner in callees.get(name, ()):
                    names = values[owner]
                    passed = {keyword.arg for keyword in node.keywords}
                    if owner == name:
                        passed.update(names[:len(node.args)])
                    found.update(
                        f"{owner}.{value}" for value in names if value in passed
                    )
    unset = {
        f"{owner}.{name}" for owner, names in values.items() for name in names
    } - nested - found
    return sorted(unset - set(pinned)), sorted(set(pinned) - unset)


def _reach_classes() -> List[type]:
    import importlib

    resolved = []
    for target in REACH_CLASSES:
        module, name = target.split(":")
        resolved.append(getattr(importlib.import_module(module), name))
    return _config_classes() + resolved


def test_no_config_field_is_set_only_by_tests():
    """A value only tests set is a constant in disguise: each field of
    the config, plan and spec dataclasses and each ``__init__`` parameter
    of the components in ``REACH_CLASSES`` is passed somewhere under
    ``src/repro``, ``benchmarks`` or ``examples`` — or is pinned above
    with who needs it."""
    unpinned, stale = reach_findings(
        _reach_classes(),
        [ROOT / top for top in ("src/repro", "benchmarks", "examples")],
        UNSET_OUTSIDE_TESTS,
        wrappers={"backend_config": "SimulationConfig"},
    )
    assert all(UNSET_OUTSIDE_TESTS.values())
    assert unpinned == [], "set only by tests: make constants"
    assert stale == [], "set outside tests now: unpin"


def test_the_reach_guard_sees_values_only_tests_set(tmp_path, monkeypatch):
    """A parameter only a test passes is reported, one passed outside the
    tests (positionally or by keyword) is not, a pin covers the reported
    one, and a pin of a value passed outside the tests is stale."""
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "knobs.py").write_text(
        "class Knob:\n"
        "    def __init__(self, size, speed=1, color='red', mode='a'):\n"
        "        pass\n\n\n"
        "def build():\n"
        "    return Knob(4, 2, color='blue'), Knob(2, speed=3)\n"
    )
    (tmp_path / "tests" / "test_knobs.py").write_text(
        "from knobs import Knob\n\nKnob(1, mode='b')\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    from knobs import Knob

    tops = [tmp_path / "src"]
    assert reach_findings([Knob], tops, {}) == (["Knob.mode"], [])
    pinned = {"Knob.mode": "a test picks the mode"}
    assert reach_findings([Knob], tops, pinned) == ([], [])
    pinned["Knob.speed"] = "stale"
    assert reach_findings([Knob], tops, pinned) == ([], ["Knob.speed"])
