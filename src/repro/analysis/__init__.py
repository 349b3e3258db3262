"""Static analysis and runtime sanitizing for the repro's invariants.

Two enforcement layers for the conventions every headline guarantee
rests on (byte-identical runs, one exact record of landed bytes, 1e-9
solver equivalence):

* :mod:`repro.analysis.engine` + :mod:`repro.analysis.rules` — the
  ``repro lint`` AST rule engine: determinism and accounting rules
  (DET*/ACC*/PERF*) with per-line pragma suppression and
  ``[tool.repro-lint]`` configuration;
* :mod:`repro.analysis.sanitizer` — the opt-in runtime invariant
  sanitizer (``REPRO_SANITIZE=1`` / ``--sanitize``): zero-cost-when-off
  hooks in the fabric, kernel, and DAG scheduler asserting capacity
  conservation, finite non-negative rates, time monotonicity, and, at
  stage boundaries, that every landed byte is on the views reading the
  traffic monitor (keyed for the shuffle counters, tenanted in a
  multi-tenant run).
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.analysis.engine": (
        "Finding", "LintConfig", "LintEngine", "load_config", "lint_paths",
    ),
    "repro.analysis.sanitizer": (
        "InvariantViolation", "Sanitizer", "get_sanitizer", "sanitized",
    ),
})
