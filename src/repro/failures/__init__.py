"""Failure and chaos injection (paper Fig. 2 / §II-B)."""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.failures.campaign": ("CampaignConfig", "CampaignReport", "run_campaign"),
    "repro.failures.chaos": ("ChaosEvent", "ChaosInjector", "ChaosSchedule"),
    "repro.failures.grammar": (
        "ChaosUniverse", "GrammarConfig", "random_schedule", "schedule_to_specs",
    ),
    "repro.failures.health": (
        "BlacklistTracker", "LinkHealthMonitor", "flow_deadline", "transfer_with_retry",
    ),
    "repro.failures.injector": ("FailureInjector",),
    "repro.failures.minimize": ("MinimizationResult", "minimize_schedule"),
})
