"""Federated multi-site archive: N per-site clusters, one object plane.

The paper's §5.3 federation made real: each site is a full
:mod:`repro.cluster` deployment protecting the *same* data under a
cooperatively selected Tornado graph
(:func:`~repro.sites.manifest.assign_site_graphs`), and the
:class:`~repro.sites.gateway.FederationGateway` serves reads down a
WAN-priced ladder — local reconstruction, remote fetch, coupled
cross-site decode — with wide-area bytes metered first-class.
:mod:`~repro.sites.driver` and :mod:`~repro.sites.campaign` run live
multi-process federations through full-site blackouts and
hazard-curve fleet attrition, as scenarios over
:class:`repro.cluster.fleet.Fleet`.
"""

from .campaign import (
    SitesCampaignConfig,
    SitesCampaignReport,
    run_sites_campaign,
)
from .driver import SitesLoadConfig, SitesLoadReport, run_sites_loadgen
from .gateway import (
    FederationGateway,
    SiteDownError,
    SiteLink,
    start_gateway,
)
from .manifest import (
    FederationManifest,
    PairingRecord,
    SiteAssignment,
    assign_site_graphs,
)
from .wancost import WanCostModel, WanReadEstimate, estimate_wan_read_cost
from .witness import find_coupled_witness

__all__ = [
    "FederationGateway",
    "FederationManifest",
    "PairingRecord",
    "SiteAssignment",
    "SiteDownError",
    "SiteLink",
    "SitesCampaignConfig",
    "SitesCampaignReport",
    "SitesLoadConfig",
    "SitesLoadReport",
    "WanCostModel",
    "WanReadEstimate",
    "assign_site_graphs",
    "estimate_wan_read_cost",
    "find_coupled_witness",
    "run_sites_campaign",
    "run_sites_loadgen",
    "start_gateway",
]
