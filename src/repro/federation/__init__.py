"""Federated multi-site archival storage with complementary graphs."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".multigraph": ("FederatedSystem", "federated_first_failure"),
        ".profile": ("federated_profile",),
        ".selection": ("PairingScore", "SelectionReport", "select_complementary_pair"),
    },
)
