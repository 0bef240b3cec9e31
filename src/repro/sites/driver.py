"""Multi-process federation driver: N sites, one gateway, one blackout.

``repro sites loadgen`` runs the federation's flagship exercise:

1. cooperatively assign catalog graphs to N sites
   (:func:`~repro.sites.manifest.assign_site_graphs`) and freeze the
   manifest to disk;
2. spawn each site as a real cluster — coordinator (journaling to its
   own WAL, deployed with its assigned graph) plus storage nodes —
   and one federation gateway process wired to every coordinator;
3. put seeded objects through the gateway and replay seeded open-loop
   reads: all local, zero WAN bytes;
4. **black out a full site** (SIGKILL coordinator and nodes together)
   and keep reading — every read must still succeed, now via the WAN,
   with ``sites.wan.bytes`` growing only inside this window;
5. heal: restart the coordinator on its old port with ``--recover``
   (WAL replay), respawn the nodes empty, and run a federation repair
   — the wiped site is repopulated by priced WAN re-injection;
6. read again: traffic is local once more (the WAN read meter must
   stay flat);
7. in a two-site federation, stage the coupled-decode demo: delete a
   seeded witness pattern
   (:func:`~repro.sites.witness.find_coupled_witness`) so *neither*
   site can decode an object alone, prove both sites fail single-site
   reads, then demand the gateway serve it anyway through the coupled
   cross-site decode — and repair the damage;
8. verify every object end-to-end and per-site.

The report separates the WAN meter into per-phase windows precisely
so CI can assert the federation's headline property: wide-area bytes
are zero in steady state, positive only while a site is dark (and
during the explicitly staged coupled/repair phases).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from ..cluster.fleet import Cell, Fleet, ScenarioReport
from ..obs.seeding import derive_seed, resolve_rng
from ..obs.trace import trace_span
from ..scenarios import SitesLoadConfig
from ..storage.blockstore import parse_block_key
from .manifest import assign_site_graphs
from .witness import find_coupled_witness

__all__ = ["SitesLoadReport", "run_sites_loadgen"]


@dataclass
class SitesLoadReport(ScenarioReport):
    """Outcome of one federation exercise (see module docs for phases)."""

    sites: int
    nodes_per_site: int
    objects: int
    graph_numbers: dict[str, int]
    first_failure_floor: int
    blackout_site: str | None = None
    completed: int = 0
    failed: int = 0
    mismatched: int = 0
    reads: dict[str, int] = field(default_factory=dict)  # ladder counts
    wan: dict[str, int] = field(default_factory=dict)  # per-window deltas
    repair: dict[str, Any] = field(default_factory=dict)
    coupled_demo: dict[str, Any] = field(
        default_factory=lambda: {"staged": False}
    )
    verified_objects: int = 0
    site_verified: dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    events: list[dict[str, Any]] = field(default_factory=list)
    telemetry: dict[str, Any] | None = None

    def describe(self) -> str:
        assignments = ", ".join(
            f"{sid}=tornado-graph-{n}"
            for sid, n in sorted(self.graph_numbers.items())
        )
        lines = [
            f"federation of {self.sites} sites x {self.nodes_per_site} "
            f"nodes ({assignments}); joint first failure >= "
            f"{self.first_failure_floor}",
            f"reads: {self.completed} completed, {self.failed} failed, "
            f"{self.mismatched} mismatched "
            f"(ladder: {self.reads.get('local', 0)} local / "
            f"{self.reads.get('remote', 0)} remote / "
            f"{self.reads.get('coupled', 0)} coupled)",
            f"WAN read bytes: {self.wan.get('read_before', 0)} before "
            f"blackout, {self.wan.get('read_during', 0)} during, "
            f"{self.wan.get('read_after', 0)} after heal; repair "
            f"re-injection {self.wan.get('repair_bytes', 0)} bytes",
        ]
        if self.blackout_site:
            lines.append(
                f"blacked out {self.blackout_site} mid-run; served "
                "every read through the surviving sites"
            )
        if self.coupled_demo.get("staged"):
            lines.append(
                "coupled decode: both sites failed alone, the "
                f"federation served the read "
                f"({self.coupled_demo.get('wan_bytes', 0)} WAN bytes)"
            )
        if self.telemetry:
            lines.append(self.describe_telemetry())
        lines.append(
            f"verified {self.verified_objects}/{self.objects} objects "
            + ("(ZERO data loss)" if not self.data_loss else "(LOSS!)")
        )
        lines.append(f"elapsed {self.elapsed_seconds:.2f}s")
        return "\n".join(lines)


def _delete_witness_blocks(
    fleet: Fleet, cell: Cell, name: str, erased: set[int]
) -> None:
    """Delete the witness pattern's blocks on a site's live nodes."""
    for child in cell.nodes.values():
        with fleet.connect(child, timeout=10.0) as c:
            for key in c.block_list(f"{name}/"):
                _, _, node = parse_block_key(key)
                if node in erased:
                    c.block_delete(key)


def run_sites_loadgen(
    config: SitesLoadConfig | None = None,
) -> SitesLoadReport:
    """Run the full federation exercise (see module docs for phases)."""
    config = config or SitesLoadConfig()
    site_ids = [f"site-{i}" for i in range(config.sites)]
    manifest = assign_site_graphs(
        site_ids,
        site_max_size=config.site_max_size,
        curve_samples=config.curve_samples,
        seed=derive_seed(config.seed),
    )

    start = time.perf_counter()
    report = SitesLoadReport(
        sites=config.sites,
        nodes_per_site=config.nodes_per_site,
        objects=config.objects,
        graph_numbers={
            s.site_id: s.graph_number for s in manifest.sites
        },
        first_failure_floor=manifest.first_failure_floor(),
    )
    note = report.note
    with Fleet(
        config.seed,
        block_size=config.block_size,
        trace_dir=config.trace_dir,
        work_dir=config.work_dir,
        obs_dir=config.obs_dir,
    ) as fleet:
        sites = fleet.add_federation(
            manifest, config.nodes_per_site, rpc_timeout=config.rpc_timeout
        )
        client = fleet.open_client()
        telemetry = fleet.telemetry
        payload_rng = resolve_rng(fleet.next_seed())
        phase_seeds = {
            phase: fleet.next_seed()
            for phase in ("steady", "blackout", "healed", "witness")
        }

        with trace_span("sites.loadgen.seed"):
            digests = fleet.seed_objects(
                config.objects, config.object_size, payload_rng
            )
        names = sorted(digests)
        telemetry.scrape(note="baseline after seeding")

        def read_wan_bytes() -> int:
            return int(client.status()["wan"]["read_bytes"])

        def read_phase(tag: str) -> None:
            for _, name, _ in fleet.paced(
                names,
                requests=config.reads_per_phase,
                rate=config.rate,
                seed=phase_seeds[tag],
            ):
                error = fleet.read(name, digests[name])
                if error is None:
                    report.completed += 1
                elif error == "mismatch":
                    report.mismatched += 1
                    note("mismatch", phase=tag, object=name)
                else:
                    report.failed += 1
                    note("read_failed", phase=tag, object=name, error=error)

        # Phase: steady state — every read local, zero WAN bytes.
        with trace_span("sites.loadgen.steady"):
            read_phase("steady")
        report.wan = {"read_before": read_wan_bytes()}
        telemetry.scrape(note="steady phase complete")

        # Phase: full-site blackout; reads continue over the WAN.
        dark = sites[site_ids[0]]
        report.blackout_site = dark.name
        note("blackout", site=dark.name)
        dark.blackout()
        telemetry.scrape(note=f"blackout {dark.name}")
        with trace_span("sites.loadgen.blackout", site=dark.name):
            read_phase("blackout")
        report.wan["read_during"] = read_wan_bytes() - report.wan["read_before"]
        telemetry.scrape(note="blackout reads complete")

        # Phase: heal — WAL recovery + empty nodes + WAN repair.
        note("recover", site=dark.name)
        dark.start(recover=True)
        telemetry.scrape(note=f"recovered {dark.name}")
        with trace_span("sites.loadgen.repair"):
            report.repair = client.repair("drain")
        wan_after_repair = read_wan_bytes()
        with trace_span("sites.loadgen.healed"):
            read_phase("healed")
        report.wan["read_after"] = read_wan_bytes() - wan_after_repair
        telemetry.scrape(note="healed reads complete")
        telemetry.settle()

        # Phase: the coupled-decode demo (two-site federations).
        if config.sites == 2:
            graphs = [manifest.assignment(sid).graph for sid in site_ids]
            witness = find_coupled_witness(
                graphs[0], graphs[1], seed=phase_seeds["witness"]
            )
            if witness is None:
                note("coupled_witness_missing")
            else:
                target = names[0]
                wan_before = read_wan_bytes()
                for sid, erased in zip(site_ids, witness):
                    _delete_witness_blocks(fleet, sites[sid], target, erased)
                # Both sites must now fail the read alone...
                sites_failed = 0
                for sid in site_ids:
                    with fleet.connect(sites[sid].coordinator) as c:
                        alone = fleet.read(target, digests[target], c)
                        sites_failed += alone is not None
                # ...while the federation still serves it.
                with trace_span("sites.loadgen.coupled"):
                    error = fleet.read(target, digests[target])
                if error not in (None, "mismatch"):
                    note("coupled_read_failed", error=error)
                report.coupled_demo = {
                    "staged": True,
                    "object": target,
                    "erased_per_site": [len(w) for w in witness],
                    "sites_failed_alone": sites_failed,
                    "served": error is None,
                    "wan_bytes": read_wan_bytes() - wan_before,
                }
                if error is not None:
                    report.mismatched += 1
                # Undo the staged damage before the final sweep.
                with trace_span("sites.loadgen.coupled_repair"):
                    client.repair("drain")

        # Phase: end-to-end and per-site verification sweeps.
        with trace_span("sites.loadgen.verify"):
            report.verified_objects = fleet.verify(digests)
            for sid in site_ids:
                with fleet.connect(sites[sid].coordinator) as c:
                    report.site_verified[sid] = fleet.verify(digests, c)

        status = client.status()
        report.reads = status["reads"]
        report.wan["repair_bytes"] = status["wan"]["repair_bytes"]
        report.wan["replicate_bytes"] = status["wan"]["replicate_bytes"]
        report.wan["total_bytes"] = status["wan"]["total_bytes"]
        telemetry.scrape(note="final verification sweep")
        report.telemetry = telemetry.summary()

    report.elapsed_seconds = time.perf_counter() - start
    return report
