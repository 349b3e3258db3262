"""Configuration objects: validation and derived helpers."""

import ast
import dataclasses
from pathlib import Path

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


# Config fields that no code outside the tests sets yet, and why each
# stays settable.
UNSET_OUTSIDE_TESTS = {
    "JitterSpec.period": "part of the WAN fluctuation model, beside low/high",
    "JitterSpec.max_step_fraction":
        "part of the WAN fluctuation model, beside low/high",
    "FailureConfig.reducer_failure_probability":
        "reducer-failure injection waits for its experiment (ROADMAP 9)",
    "FailureConfig.max_injected_failures_per_task":
        "reducer-failure injection waits for its experiment (ROADMAP 9)",
    "SimulationConfig.cores_per_host": "the cluster's shape, not a policy",
}


def test_no_config_field_is_set_only_by_tests():
    """A value only tests set is a constant in disguise: each scalar
    field of the config dataclasses is passed as a keyword to its class,
    to ``dataclasses.replace`` or to ``backend_config`` somewhere under
    ``src/repro``, ``benchmarks`` or ``examples`` — or is pinned above
    with its reason.  Fields holding a nested config object are checked
    through that object's own fields."""
    classes = _config_classes()
    fields = {
        cls.__name__: [
            field.name for field in dataclasses.fields(cls)
            if not dataclasses.is_dataclass(field.default_factory)
        ]
        for cls in classes
    }
    # Which callee may set which class's fields.
    callees = {name: [name] for name in fields}
    callees["replace"] = list(fields)
    callees["backend_config"] = ["SimulationConfig"]
    set_fields = set()
    for top in ("src/repro", "benchmarks", "examples"):
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                for owner in callees.get(name, ()):
                    set_fields.update(
                        f"{owner}.{keyword.arg}"
                        for keyword in node.keywords
                        if keyword.arg in fields[owner]
                    )
    unset = {
        f"{owner}.{name}"
        for owner, names in fields.items()
        for name in names
    } - set_fields
    pinned = set(UNSET_OUTSIDE_TESTS)
    assert sorted(unset - pinned) == [], "set only by tests: make constants"
    assert sorted(pinned - unset) == [], "set outside tests now: unpin"
