"""Experiment harness: everything needed to regenerate the paper's
tables and figures.

* :mod:`repro.experiments.schemes` — the scheme registry, enumerated
  from the registered shuffle backends: ``Spark`` (stock fetch-based
  shuffle), ``Centralized`` (ship all raw input to one datacenter
  first), ``AggShuffle`` (the paper's Push/Aggregate with implicit
  ``transfer_to``), plus the ``IridiumLike`` and ``PreMerge``
  extensions.
* :mod:`repro.experiments.runner` — run one (workload, scheme, seed)
  cell on the Fig. 6 cluster and collect metrics.
* :mod:`repro.experiments.figures` — Fig. 7 (job completion times),
  Fig. 8 (cross-datacenter traffic), Fig. 9 (stage breakdowns), and the
  §V headline numbers.

The Fig. 1 / Fig. 2 timing examples on the raw network fabric live with
the tables that print them, in ``benchmarks.scenarios``.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.experiments.schemes": (
        "PAPER_SCHEMES", "SCHEME_REGISTRY", "Scheme", "SchemeSpec", "all_schemes",
        "config_for_scheme", "scheme_spec",
    ),
    "repro.experiments.runner": (
        "ExperimentPlan", "RunResult", "run_matrix", "run_workload_once",
    ),
    "repro.experiments.figures": (
        "fig7_job_completion_times", "fig8_cross_dc_traffic", "fig9_stage_breakdown",
        "headline_numbers",
    ),
})
