"""Federated multi-site archival storage with complementary graphs."""

from .multigraph import (
    FederatedSystem,
    federated_first_failure,
)

from .selection import PairingScore, SelectionReport, select_complementary_pair
from .profile import federated_profile

__all__ = [
    "PairingScore",
    "SelectionReport",
    "select_complementary_pair",
    "federated_profile",
    "FederatedSystem",
    "federated_first_failure",
]
