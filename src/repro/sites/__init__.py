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

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".campaign": ("SitesCampaignReport", "run_sites_campaign"),
        ".driver": ("SitesLoadReport", "run_sites_loadgen"),
        ".gateway": ("FederationGateway", "SiteDownError", "SiteLink", "start_gateway"),
        ".manifest": (
            "FederationManifest",
            "PairingRecord",
            "SiteAssignment",
            "assign_site_graphs",
        ),
        ".wancost": ("WanCostModel", "WanReadEstimate", "estimate_wan_read_cost"),
        ".witness": ("find_coupled_witness",),
        "..scenarios": ("SitesCampaignConfig", "SitesLoadConfig"),
    },
)
