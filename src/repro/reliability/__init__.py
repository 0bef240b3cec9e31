"""Reliability modelling: device AFR to system failure probability."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".hazards": (
            "BathtubHazard",
            "FleetHazards",
            "WeibullHazard",
            "calibrated_scale",
            "failure_rate_from_afr",
            "step_failure_probability",
        ),
        ".lifetime": (
            "LifetimeConfig",
            "LifetimeResult",
            "failure_predicate_for_graph",
            "failure_predicate_for_groups",
            "simulate_lifetime",
        ),
        ".model": (
            "DEFAULT_AFR",
            "ReliabilityEntry",
            "afr_sweep",
            "binomial_loss_pmf",
            "mttdl",
            "reliability_table",
            "system_failure_probability",
        ),
    },
)
