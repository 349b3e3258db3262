"""Evaluated schemes, driven by the shuffle-backend registry (§V-A).

A *scheme* is a named experiment configuration: which shuffle backend
moves the data, whether the scheme is part of the paper's evaluation,
and an optional input pre-processing phase that runs before the job.

* ``Scheme.SPARK`` — "the deployment of Spark across geo-distributed
  datacenters, without any optimization in terms of the wide-area
  network": the ``fetch`` backend, default locality scheduling.
* ``Scheme.CENTRALIZED`` — "all raw data is sent to a single datacenter
  before being processed"; the job itself then runs with stock Spark
  semantics (the ``fetch`` backend), mostly inside that datacenter.
* ``Scheme.AGGSHUFFLE`` — the paper's system: the ``push_aggregate``
  backend, Push/Aggregate with ``transfer_to()`` embedded implicitly
  before every shuffle ("only are the implicit transformations involved
  in the experiments, leaving the benchmark source code unchanged").
* ``Scheme.IRIDIUM`` — extension, not part of the paper's evaluation:
  an Iridium-style input-redistribution baseline over the ``fetch``
  backend (see :mod:`repro.experiments.iridium`).
* ``Scheme.PREMERGE`` — extension: the ``pre_merge`` backend, which
  consolidates map outputs per datacenter before the WAN hop.
* ``Scheme.REMOTE`` — extension: the ``remote`` backend, a dedicated
  shuffle-worker tier with adaptive replication (durability-first
  recovery instead of lineage).
* ``Scheme.BLOB`` — extension: the ``blob`` backend, a per-region
  object store where recovery cost is re-read dollars.

Backend-only schemes are *enumerated from the registry*: registering a
new :class:`~repro.shuffle.service.ShuffleBackend` (plus an enum member
whose value matches its ``scheme_label``) makes it appear in
``all_schemes()`` and the CLI ``--scheme`` choices automatically, with
no conditional branching here or in the runner.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, Dict, Optional, Tuple

from repro.config import ShuffleConfig, SimulationConfig
from repro.errors import ConfigurationError
from repro.shuffle.backends import backend_class, backend_names
from repro.workloads.specs import WorkloadSpec


class Scheme(enum.Enum):
    SPARK = "Spark"
    CENTRALIZED = "Centralized"
    AGGSHUFFLE = "AggShuffle"
    # Extensions, not part of the paper's evaluation.
    IRIDIUM = "IridiumLike"
    PREMERGE = "PreMerge"
    # Durability-first extensions (ROADMAP item 2): dedicated shuffle
    # workers with adaptive replication, and a per-region object store.
    REMOTE = "RemoteShuffle"
    BLOB = "BlobShuffle"


# A pre-processing phase: (context, input_path, cluster_spec) -> seconds.
PreprocessFn = Callable[..., float]


@dataclasses.dataclass(frozen=True)
class SchemeSpec:
    """How one scheme is realised: backend + optional preprocessing."""

    scheme: Scheme
    backend: str
    # Part of the paper's §V evaluation (Figs. 7-9)?
    paper: bool = False
    preprocess: Optional[PreprocessFn] = None
    # Stage name recorded for the preprocessing span (Fig. 9 material).
    preprocess_stage_name: str = ""


def _centralize(context, input_path: str, cluster_spec) -> float:
    from repro.experiments.centralize import centralize_input

    destination = cluster_spec.resolved_driver_datacenter
    return centralize_input(context, input_path, destination)


def _iridium(context, input_path: str, cluster_spec) -> float:
    from repro.experiments.iridium import iridium_redistribute

    return iridium_redistribute(context, input_path)


# Schemes that are more than a backend: a preprocessing pass over the
# plain fetch backend.  Everything else is enumerated from the registry.
_PREPROCESS_SPECS: Tuple[SchemeSpec, ...] = (
    SchemeSpec(
        scheme=Scheme.CENTRALIZED,
        backend="fetch",
        paper=True,
        preprocess=_centralize,
        preprocess_stage_name="centralize-input",
    ),
    SchemeSpec(
        scheme=Scheme.IRIDIUM,
        backend="fetch",
        paper=False,
        preprocess=_iridium,
        preprocess_stage_name="redistribute-input",
    ),
)

# Backend scheme_labels whose plain (no-preprocess) scheme is evaluated
# in the paper.
_PAPER_BACKEND_LABELS = frozenset({"Spark", "AggShuffle"})


def _build_registry() -> Dict[Scheme, SchemeSpec]:
    registry: Dict[Scheme, SchemeSpec] = {}
    for name in backend_names():
        label = backend_class(name).scheme_label
        try:
            scheme = Scheme(label)
        except ValueError:
            raise ConfigurationError(
                f"shuffle backend {name!r} advertises scheme label "
                f"{label!r}, which has no Scheme enum member"
            ) from None
        registry[scheme] = SchemeSpec(
            scheme=scheme,
            backend=name,
            paper=label in _PAPER_BACKEND_LABELS,
        )
    for spec in _PREPROCESS_SPECS:
        if spec.backend not in backend_names():
            raise ConfigurationError(
                f"scheme {spec.scheme.value!r} references unregistered "
                f"backend {spec.backend!r}"
            )
        registry[spec.scheme] = spec
    # Deterministic enum-declaration order, whatever order backends
    # registered in.
    return {scheme: registry[scheme] for scheme in Scheme if scheme in registry}


SCHEME_REGISTRY: Dict[Scheme, SchemeSpec] = _build_registry()

# The paper's evaluated systems, in presentation order (Figs. 7-9).
PAPER_SCHEMES: Tuple[Scheme, ...] = tuple(
    scheme for scheme, spec in SCHEME_REGISTRY.items() if spec.paper
)


def all_schemes() -> Tuple[Scheme, ...]:
    """Every runnable scheme, in enum-declaration order."""
    return tuple(SCHEME_REGISTRY)


def scheme_spec(scheme: Scheme) -> SchemeSpec:
    """The registry entry for ``scheme``."""
    try:
        return SCHEME_REGISTRY[scheme]
    except KeyError:
        raise ConfigurationError(
            f"scheme {scheme.value!r} is not registered"
        ) from None


def config_for_scheme(
    scheme: Scheme,
    workload_spec: WorkloadSpec,
    seed: int,
    base: SimulationConfig | None = None,
) -> SimulationConfig:
    """Build the per-run configuration for one scheme.

    The same seed drives bandwidth jitter and failure draws in every
    scheme, so compared runs see identical network weather.  The
    workload's CPU rate (text parsing vs. binary records) is applied to
    the cost model, and the scheme's registered shuffle backend to the
    shuffle configuration.
    """
    config = base if base is not None else SimulationConfig()
    cost = dataclasses.replace(
        config.cost, cpu_bytes_per_second=workload_spec.cpu_bytes_per_second
    )
    shuffle = ShuffleConfig(backend=scheme_spec(scheme).backend)
    return dataclasses.replace(
        config, seed=seed, cost=cost, shuffle=shuffle
    )
