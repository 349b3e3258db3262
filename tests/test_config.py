"""Configuration objects: validation and derived helpers."""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.config import (
    CostModel,
    FailureConfig,
    SchedulingConfig,
    ShuffleConfig,
    SimulationConfig,
    backend_config,
)
from repro.errors import ConfigurationError


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
    scheduling = SchedulingConfig()
    assert scheduling.reducer_pref_fraction == pytest.approx(0.2)
    assert scheduling.max_task_attempts >= 1
    assert scheduling.receiver_datacenter_wait > (
        scheduling.locality_wait_datacenter
    )


def test_failure_config_defaults_off():
    assert FailureConfig().reducer_failure_probability == 0.0


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
    classes = [
        value for value in vars(config_module).values()
        if dataclasses.is_dataclass(value)
        and value.__module__ == config_module.__name__
    ]
    assert len(classes) == 7
    unread = [
        f"{cls.__name__}.{field.name}"
        for cls in classes
        for field in dataclasses.fields(cls)
        if field.name not in read
    ]
    assert unread == []
