"""Evaluated schemes: one literal table over the shuffle backends (§V-A).

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

``SCHEME_REGISTRY`` is the one table of schemes, one row per member: a
new backend appears in ``all_schemes()`` and the runner with a
``Scheme`` member and a row naming its backend, with no conditional
branching here or in the runner (the CLI's ``--scheme`` choices are the
static ``repro.cli.SCHEMES``, held equal to this table by a test).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, Optional, Tuple

from repro.config import ShuffleConfig, SimulationConfig
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


# One row per Scheme member, in declaration order.  Centralized and
# IridiumLike are more than a backend: a preprocessing pass over the
# plain fetch backend.
SCHEME_REGISTRY: Tuple[SchemeSpec, ...] = (
    SchemeSpec(scheme=Scheme.SPARK, backend="fetch", paper=True),
    SchemeSpec(
        scheme=Scheme.CENTRALIZED,
        backend="fetch",
        paper=True,
        preprocess=_centralize,
        preprocess_stage_name="centralize-input",
    ),
    SchemeSpec(scheme=Scheme.AGGSHUFFLE, backend="push_aggregate", paper=True),
    SchemeSpec(
        scheme=Scheme.IRIDIUM,
        backend="fetch",
        preprocess=_iridium,
        preprocess_stage_name="redistribute-input",
    ),
    SchemeSpec(scheme=Scheme.PREMERGE, backend="pre_merge"),
    SchemeSpec(scheme=Scheme.REMOTE, backend="remote"),
    SchemeSpec(scheme=Scheme.BLOB, backend="blob"),
)

# The paper's evaluated systems, in presentation order (Figs. 7-9).
PAPER_SCHEMES: Tuple[Scheme, ...] = tuple(
    spec.scheme for spec in SCHEME_REGISTRY if spec.paper
)


def all_schemes() -> Tuple[Scheme, ...]:
    """Every runnable scheme, in enum-declaration order."""
    return tuple(spec.scheme for spec in SCHEME_REGISTRY)


def scheme_spec(scheme: Scheme) -> SchemeSpec:
    """The table row of ``scheme``."""
    return next(spec for spec in SCHEME_REGISTRY if spec.scheme is scheme)


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
    the cost model, and the scheme's shuffle backend to the
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
