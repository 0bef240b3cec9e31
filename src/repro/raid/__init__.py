"""Analytic RAID-family failure models (mirroring, RAID5/6, striping)."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".analytic": (
            "AnalyticSystem",
            "grouped_mds_fail_given_k",
            "mirrored_fail_given_k",
            "mirrored_system",
            "raid5_system",
            "raid6_system",
            "striped_fail_given_k",
            "striped_system",
        ),
    },
)
