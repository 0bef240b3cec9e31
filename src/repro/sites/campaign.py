"""Federation chaos campaign: hazard-curve attrition + site blackouts.

``repro sites chaos`` marries the heterogeneous fleet hazards of
:mod:`repro.reliability.hazards` to a live multi-process federation.
Every storage node is a device on a Weibull (or bathtub) hazard
curve — wear-out accelerates kills as the campaign ages, replacements
draw infant-mortality lifetimes, and correlated batch defects take out
groups of neighbouring drives.  On top of the per-device process, whole
sites black out (SIGKILL coordinator + nodes) under a seeded outage
process that keeps at most one site dark at a time, so the federation
always keeps a site alive.  Throughout, the gateway keeps serving seeded
reads and runs budgeted repair cycles; the campaign ends with a full
heal, a drain repair, and an end-to-end verification sweep.

The pass condition matches the paper's archival framing: after years
of compressed wall-clock chaos, *zero acknowledged objects are lost*.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from ..cluster.fleet import Fleet, ScenarioReport
from ..obs.seeding import derive_seed, resolve_rng
from ..obs.trace import trace_span
from ..reliability.hazards import FleetHazards, WeibullHazard
from ..scenarios import SitesCampaignConfig
from .manifest import assign_site_graphs

__all__ = ["SitesCampaignReport", "run_sites_campaign"]

# Device-fleet heterogeneity beyond the CLI's three hazard parameters:
# infant first-year failure probability, correlated defect batches.
_INFANT_FIRST_YEAR = 0.3
_BATCH_DEFECT_RATE = 0.2
_BATCH_SIZE = 3
_DEFECT_MULTIPLIER = 4.0
# Graph selection bound and curve resolution; 6 keeps startup fast.
_SITE_MAX_SIZE = 6
_CURVE_SAMPLES = 100
# Whole-site outages: per-site-step probability and mean length in
# steps.  One site is dark at a time, so of two or more one stays up.
_BLACKOUT_RATE = 0.25
_MEAN_OUTAGE_STEPS = 1.5
# Foreground reads per step; a gateway repair cycle every N steps.
_READS_PER_STEP = 2
_REPAIR_EVERY = 2


@dataclass
class SitesCampaignReport(ScenarioReport):
    """Outcome of one federation chaos campaign."""

    sites: int
    nodes_per_site: int
    objects: int
    steps: int
    graph_numbers: dict[str, int]
    node_kills: int = 0
    infant_replacements: int = 0
    site_blackouts: int = 0
    reads_completed: int = 0
    reads_failed: int = 0
    mismatched: int = 0
    repair_cycles: int = 0
    wan: dict[str, int] = field(default_factory=dict)
    hazard: dict[str, Any] = field(default_factory=dict)
    verified_objects: int = 0
    elapsed_seconds: float = 0.0
    events: list[dict[str, Any]] = field(default_factory=list)

    def describe(self) -> str:
        lines = [
            f"chaos campaign: {self.steps} steps over {self.sites} "
            f"sites x {self.nodes_per_site} nodes",
            f"hazards: {self.node_kills} node kills "
            f"({self.infant_replacements} infant replacements), "
            f"{self.site_blackouts} full-site blackouts",
            f"reads: {self.reads_completed} completed, "
            f"{self.reads_failed} failed, {self.mismatched} mismatched; "
            f"{self.repair_cycles} gateway repair cycles",
            f"WAN: {self.wan.get('total_bytes', 0)} bytes total "
            f"({self.wan.get('repair_bytes', 0)} repair)",
            f"verified {self.verified_objects}/{self.objects} objects "
            + ("(ZERO data loss)" if not self.data_loss else "(LOSS!)"),
            f"elapsed {self.elapsed_seconds:.2f}s",
        ]
        return "\n".join(lines)


def run_sites_campaign(
    config: SitesCampaignConfig | None = None,
) -> SitesCampaignReport:
    """Run the hazard + blackout campaign against a live federation."""
    config = config or SitesCampaignConfig()
    site_ids = [f"site-{i}" for i in range(config.sites)]
    manifest = assign_site_graphs(
        site_ids,
        site_max_size=_SITE_MAX_SIZE,
        curve_samples=_CURVE_SAMPLES,
        seed=derive_seed(config.seed),
    )

    start = time.perf_counter()
    report = SitesCampaignReport(
        sites=config.sites,
        nodes_per_site=config.nodes_per_site,
        objects=config.objects,
        steps=config.steps,
        graph_numbers={
            s.site_id: s.graph_number for s in manifest.sites
        },
    )
    note = report.note
    dark_until: dict[str, int] = {}  # site -> first step it heals
    with Fleet(
        config.seed,
        block_size=config.block_size,
        trace_dir=config.trace_dir,
        work_dir=config.work_dir,
    ) as fleet:
        sites = fleet.add_federation(
            manifest, config.nodes_per_site, rpc_timeout=config.rpc_timeout
        )
        client = fleet.open_client()
        payload_rng = resolve_rng(fleet.next_seed())
        kill_rng = resolve_rng(fleet.next_seed())
        blackout_rng = resolve_rng(fleet.next_seed())
        hazards = FleetHazards(
            config.sites * config.nodes_per_site,
            WeibullHazard.from_afr(config.afr, shape=config.shape),
            infant_mortality=config.infant_mortality,
            infant_first_year=_INFANT_FIRST_YEAR,
            batch_defect_rate=_BATCH_DEFECT_RATE,
            batch_size=_BATCH_SIZE,
            defect_multiplier=_DEFECT_MULTIPLIER,
            seed=fleet.next_seed(),
        )

        with trace_span("sites.campaign.seed"):
            digests = fleet.seed_objects(
                config.objects, config.object_size, payload_rng
            )
        names = sorted(digests)

        for step in range(config.steps):
            with trace_span("sites.campaign.step", step=step):
                # Heal sites whose outage has elapsed (fixed order).
                for sid in site_ids:
                    if sid in dark_until and dark_until[sid] <= step:
                        note("site_recover", step=step, site=sid)
                        sites[sid].start(recover=True)
                        del dark_until[sid]

                # Draw whole-site blackouts, one dark site at a time.
                for sid in site_ids:
                    if sid in dark_until:
                        continue
                    draw = float(blackout_rng.random())
                    if draw >= _BLACKOUT_RATE or dark_until:
                        continue
                    outage = 1 + int(
                        blackout_rng.exponential(_MEAN_OUTAGE_STEPS - 1.0)
                    )
                    dark_until[sid] = step + outage
                    report.site_blackouts += 1
                    note(
                        "site_blackout",
                        step=step,
                        site=sid,
                        heal_at=step + outage,
                    )
                    sites[sid].blackout()

                # Per-device hazard kills on sites that are alive.
                for si, sid in enumerate(site_ids):
                    if sid in dark_until:
                        continue
                    site = sites[sid]
                    devices = {
                        si * config.nodes_per_site + ni: node_id
                        for ni, node_id in enumerate(sorted(site.nodes))
                    }
                    for device in hazards.failures(
                        float(step), float(step + 1), devices, kill_rng
                    ):
                        node_id = devices[device]
                        report.node_kills += 1
                        note(
                            "node_kill",
                            step=step,
                            site=sid,
                            node=node_id,
                        )
                        site.nodes[node_id].kill()
                        if hazards.replace(device, float(step)):
                            report.infant_replacements += 1
                        site.spawn_node(node_id)

                # Keep serving reads through whatever is left.
                for r in range(_READS_PER_STEP):
                    name = names[(step * _READS_PER_STEP + r) % len(names)]
                    error = fleet.read(name, digests[name])
                    if error is None:
                        report.reads_completed += 1
                    elif error == "mismatch":
                        report.mismatched += 1
                    else:
                        report.reads_failed += 1
                        note(
                            "read_failed",
                            step=step,
                            object=name,
                            error=error,
                        )

                # Periodic budgeted repair through the gateway.
                if (step + 1) % _REPAIR_EVERY == 0:
                    try:
                        client.repair("cycle")
                        report.repair_cycles += 1
                    except Exception as exc:
                        note(
                            "repair_failed",
                            step=step,
                            error=type(exc).__name__,
                        )

        # Final heal: bring every dark site back, drain, verify.
        with trace_span("sites.campaign.final_heal"):
            for sid in sorted(dark_until):
                note("site_recover", step=config.steps, site=sid)
                sites[sid].start(recover=True)
            client.repair("drain")
            report.repair_cycles += 1
            report.verified_objects = fleet.verify(digests)

        wan = client.status()["wan"]
        report.wan = {
            f"{kind}_bytes": wan[f"{kind}_bytes"]
            for kind in ("total", "read", "repair", "replicate")
        }
        report.hazard = hazards.summary()

    report.elapsed_seconds = time.perf_counter() - start
    return report
