"""Failure simulation: Monte Carlo profiles and worst-case search."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".montecarlo": (
            "DEFAULT_EXACT_UPTO",
            "DEFAULT_SAMPLES_PER_K",
            "profile_graph",
            "sample_fail_fraction",
        ),
        ".overhead": (
            "IncrementalPeeler",
            "OverheadResult",
            "measure_retrieval_overhead",
        ),
        ".results": ("FailureProfile",),
        ".worstcase": ("WorstCaseResult", "verify_exhaustive", "worst_case_search"),
    },
)
