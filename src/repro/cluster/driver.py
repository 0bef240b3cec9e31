"""Multi-process cluster load driver: spawn, load, kill, repair, verify.

``repro cluster loadgen`` runs this end-to-end exercise of the
coordinator/storage-node split:

1. spawn one coordinator and N storage-node processes (each node
   self-registers with the coordinator, which re-shards on every
   join);
2. put seeded objects through the coordinator and remember their
   digests;
3. replay a seeded open-loop workload of ``get`` requests
   (the same :func:`~repro.serve.loadgen.arrival_schedule` law the
   single-process load generator uses), verifying every reconstruction
   against its put-time SHA-256;
4. SIGKILL one node mid-run — subsequent reads must decode
   around it with zero failed requests;
5. declare the killed node lost (``cluster.leave``), which rebuilds
   its blocks onto the survivors and meters the cross-node repair
   bytes;
6. restart the node and rejoin it, re-sharding blocks back;
7. verify every object once more and report.

Processes, seeds, telemetry and teardown belong to the
:class:`~repro.cluster.fleet.Fleet` the run is written over; child
processes get seeds from its ledger, so no two processes mint colliding
trace span IDs, while the whole run stays a pure function of one seed
(modulo wall-clock latencies).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..obs.seeding import resolve_rng
from ..obs.trace import trace_span
from ..scenarios import ClusterLoadConfig
from .fleet import Fleet, ScenarioReport

__all__ = ["ClusterLoadReport", "run_cluster_loadgen"]

# The node dies this far into the read schedule.
_KILL_FRACTION = 0.4


@dataclass
class ClusterLoadReport(ScenarioReport):
    """Outcome of one cluster exercise (see module docs for phases)."""

    nodes: int
    objects: int
    requests: int
    completed: int = 0
    failed: int = 0
    mismatched: int = 0
    killed_node: str | None = None
    rejoined: bool = False
    repair: dict[str, Any] = field(default_factory=dict)
    status: dict[str, Any] = field(default_factory=dict)
    latency: dict[str, float] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    verified_objects: int = 0
    telemetry: dict[str, Any] | None = None

    def describe(self) -> str:
        lines = [
            f"cluster of {self.nodes} nodes: {self.completed}/"
            f"{self.requests} reads completed "
            f"({self.failed} failed, {self.mismatched} mismatched) "
            f"in {self.elapsed_seconds:.2f}s",
        ]
        if self.killed_node:
            lines.append(
                f"killed {self.killed_node} mid-run"
                + (", rejoined after repair" if self.rejoined else "")
            )
        lines.append(
            f"repair moved {self.repair.get('moved_blocks', 0)} / "
            f"rebuilt {self.repair.get('rebuilt_blocks', 0)} blocks; "
            f"cluster.repair.bytes = "
            f"{self.status.get('repair_bytes', 0)}"
        )
        lines.append(
            f"verified {self.verified_objects}/{self.objects} objects "
            + ("(ZERO data loss)" if not self.data_loss else "(LOSS!)")
        )
        if self.latency.get("count"):
            lines.append(
                "read latency "
                f"p50 {self.latency['p50'] * 1e3:.1f}ms "
                f"p95 {self.latency['p95'] * 1e3:.1f}ms "
                f"p99 {self.latency['p99'] * 1e3:.1f}ms"
            )
        if self.telemetry:
            lines.append(self.describe_telemetry())
        return "\n".join(lines)


def run_cluster_loadgen(
    config: ClusterLoadConfig | None = None,
) -> ClusterLoadReport:
    """Run the full spawn → load → kill → repair → verify exercise."""
    config = config or ClusterLoadConfig()
    report = ClusterLoadReport(
        nodes=config.nodes, objects=config.objects, requests=config.requests
    )
    start = time.perf_counter()
    with Fleet(
        config.seed,
        block_size=config.block_size,
        trace_dir=config.trace_dir,
        obs_dir=config.obs_dir,
    ) as fleet:
        cell = fleet.add_cell(
            [f"node-{i}" for i in range(config.nodes)], graph=config.graph
        )
        client = fleet.open_client(retry=False)
        telemetry = fleet.telemetry

        # Phase: seed the cluster with verifiable objects.
        payload_rng = resolve_rng(fleet.next_seed_sequence())
        with trace_span("cluster.loadgen.seed"):
            digests = fleet.seed_objects(
                config.objects, config.object_size, payload_rng
            )
        telemetry.scrape(note="baseline after seeding")

        # Phase: seeded open-loop reads, one node killed mid-run.
        kill_at = int(config.requests * _KILL_FRACTION)
        killed = report.killed_node = sorted(cell.nodes)[0]
        latencies: list[float] = []
        with trace_span("cluster.loadgen.run"):
            for i, name, due in fleet.paced(
                sorted(digests),
                requests=config.requests,
                rate=config.rate,
                seed=config.seed,
            ):
                if i == kill_at:
                    cell.nodes[killed].kill()
                    # Scrape while the node is dark: the acceptance
                    # bar is "alert fires within one scrape interval
                    # of the kill".
                    telemetry.scrape(note=f"killed {killed}")
                error = fleet.read(name, digests[name])
                if error in (None, "mismatch"):
                    # Coordinated-omission-corrected: latency from the
                    # scheduled arrival, not the (possibly late) send.
                    latencies.append(time.perf_counter() - due)
                if error is None:
                    report.completed += 1
                elif error == "mismatch":
                    report.mismatched += 1
                else:
                    report.failed += 1
                # Count the request first: a failed read still scrapes.
                if (i + 1) % config.scrape_every == 0:
                    telemetry.scrape()

        # Phase: declare the kill a loss and rebuild onto survivors.
        repair = report.repair
        repair.update(client.leave(killed))
        repair_extra = client.repair()
        for key in ("moved_blocks", "rebuilt_blocks"):
            repair[key] = repair.get(key, 0) + repair_extra.get(key, 0)
        telemetry.scrape(note="repair complete")

        # Phase: bring the node back; joining re-shards onto it.
        cell.spawn_node(killed)
        report.rejoined = True
        telemetry.scrape(note=f"rejoined {killed}")
        telemetry.settle()

        # Phase: full verification sweep — the zero-data-loss check.
        with trace_span("cluster.loadgen.verify"):
            report.verified_objects = fleet.verify(digests)
        report.status = client.status()
        telemetry.scrape(note="final verification sweep")
        report.telemetry = telemetry.summary()

    lat = np.array(latencies) if latencies else np.array([0.0])
    report.latency = {
        "count": float(len(latencies)),
        "p50": float(np.percentile(lat, 50)),
        "p95": float(np.percentile(lat, 95)),
        "p99": float(np.percentile(lat, 99)),
        "mean": float(lat.mean()),
    }
    report.elapsed_seconds = time.perf_counter() - start
    return report
