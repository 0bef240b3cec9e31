"""Cluster-wide chaos campaigns over the multi-process driver.

:func:`~repro.resilience.campaign.run_campaign` injects faults into a
single-process archive; this module does the same to a *real* cluster:
one coordinator and N storage-node subprocesses, SIGKILLed,
partitioned, and slowed on a seeded schedule, with every object's
SHA-256 verified against its put-time digest — the zero-data-loss
check the paper's fault-tolerance claims reduce to.

The campaign consumes the cluster-level specs of a
:class:`~repro.resilience.faults.FaultPlan`
(:class:`~repro.resilience.faults.CoordinatorCrashes`,
:class:`~repro.resilience.faults.NodeCrashes`,
:class:`~repro.resilience.faults.NetworkPartitions`,
:class:`~repro.resilience.faults.SlowNodes`) and ignores device-only
kinds, so one plan file can describe both layers.  Every draw comes
from one seeded generator in a fixed per-step order (coordinator
first, then nodes in sorted order, crash before partition before
slow), so a seed reproduces the exact fault schedule run-to-run —
and, because the placement ring is a pure function of membership and
every disruptive fault deterministically fails its RPCs, the repair
byte counts too.

What each fault means here:

* **Coordinator crash** — SIGKILL, then restart on the *same* port
  with ``--recover <wal_dir>``: the restarted process must rebuild
  byte-identical metadata state from snapshot + WAL replay, verified
  by comparing :meth:`ClusterCoordinator.state_sha256` digests before
  the kill and after recovery.  With ``midwrite_race`` enabled, a put
  races the SIGKILL (the CI chaos job's "kill mid-write"): if the put
  was acknowledged it must survive recovery; if it was not, either
  outcome is legal — but an acked-then-lost object is data loss.
  The race makes repair-byte counts outcome-dependent, so the
  determinism check belongs to ``midwrite_race=False`` campaigns.
* **Node crash** — SIGKILL one storage node and declare it lost
  (``cluster.leave``, which rebuilds its blocks onto the survivors);
  it restarts and rejoins ``restart_delay_steps`` steps later.
* **Partition** — the node accepts TCP but never answers
  (``node.admin partition``); the coordinator's RPC deadline, not a
  clean refusal, is what detects it.  Heals on a geometric schedule.
* **Slow** — grey failure via ``node.admin slow``.

At most one *disruptive* fault (crash or partition) is active at a
time — the single-failure-domain regime a 3-node striding placement
actually tolerates; slowdowns stack freely.  The campaign ends with a
heal-everything phase, a full repair drain, and a digest sweep over
every object including any mid-write survivors.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..cluster.fleet import Fleet, ScenarioReport
from ..obs.seeding import resolve_rng
from ..obs.trace import trace_span
from ..scenarios import ClusterCampaignConfig
from .faults import (
    CoordinatorCrashes,
    FaultPlan,
    NetworkPartitions,
    NodeCrashes,
    SlowNodes,
    outage_steps,
)

__all__ = [
    "ClusterCampaignReport",
    "default_cluster_plan",
    "run_cluster_campaign",
]


# Foreground reads per campaign step.
_READS_PER_STEP = 2


def default_cluster_plan() -> FaultPlan:
    """The stock chaos mix: every cluster fault class, frequently."""
    return FaultPlan(
        faults=(
            CoordinatorCrashes(rate=0.3),
            NodeCrashes(rate=0.25, restart_delay_steps=1),
            NetworkPartitions(rate=0.25, mean_partition_steps=1.5),
            SlowNodes(rate=0.25, delay_seconds=0.05, mean_slow_steps=1.5),
        )
    )


@dataclass
class ClusterCampaignReport(ScenarioReport):
    """Outcome of one cluster chaos campaign."""

    steps: int
    nodes: int
    total_objects: int = 0
    verified_objects: int = 0
    mismatched: int = 0
    completed_reads: int = 0
    failed_reads: int = 0
    coordinator_crashes: int = 0
    recoveries_verified: int = 0
    recovery_mismatches: int = 0
    acked_put_lost: int = 0
    node_kills: int = 0
    partitions: int = 0
    slowdowns: int = 0
    events: list[dict[str, Any]] = field(default_factory=list)
    repair: dict[str, Any] = field(default_factory=dict)
    repair_bytes: int = 0
    status: dict[str, Any] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def data_loss(self) -> bool:
        return (
            self.mismatched > 0
            or self.verified_objects < self.total_objects
            or self.recovery_mismatches > 0
            or self.acked_put_lost > 0
        )

    def describe(self) -> str:
        lines = [
            f"cluster campaign: {self.steps} steps over {self.nodes} "
            f"nodes in {self.elapsed_seconds:.2f}s",
            f"faults: {self.coordinator_crashes} coordinator crashes "
            f"({self.recoveries_verified} recoveries byte-verified), "
            f"{self.node_kills} node kills, {self.partitions} "
            f"partitions, {self.slowdowns} slowdowns",
            f"reads: {self.completed_reads} completed, "
            f"{self.failed_reads} failed transiently, "
            f"{self.mismatched} mismatched",
            f"repair: moved {self.repair.get('moved_blocks', 0)} / "
            f"rebuilt {self.repair.get('rebuilt_blocks', 0)} blocks; "
            f"cluster.repair.bytes = {self.repair_bytes}",
            f"verified {self.verified_objects}/{self.total_objects} "
            "objects "
            + ("(ZERO data loss)" if not self.data_loss else "(LOSS!)"),
        ]
        return "\n".join(lines)


def run_cluster_campaign(
    plan: FaultPlan | None = None,
    config: ClusterCampaignConfig | None = None,
) -> ClusterCampaignReport:
    """Drive a live cluster through a seeded chaos schedule and verify."""
    plan = plan if plan is not None else default_cluster_plan()
    config = config or ClusterCampaignConfig()

    def specs(kind: type) -> list:
        return [s for s in plan.faults if isinstance(s, kind)]

    report = ClusterCampaignReport(steps=config.steps, nodes=config.nodes)

    def note(step: int, kind: str, **detail: Any) -> None:
        report.note(kind, step=step, **detail)

    start = time.perf_counter()
    # Faults active at a time-step granularity; heal/restart schedules.
    dead_until: dict[str, int] = {}
    partitioned_until: dict[str, int] = {}
    slowed_until: dict[str, int] = {}
    with Fleet(
        config.seed,
        block_size=config.block_size,
        trace_dir=config.trace_dir,
        work_dir=config.wal_dir,
    ) as fleet:
        cell = fleet.add_cell(
            [f"node-{i}" for i in range(config.nodes)],
            wal=True,
            rpc_timeout=config.rpc_timeout,
            repair_budget=config.repair_budget,
            graph=config.graph,
        )
        client = fleet.open_client()
        rng = resolve_rng(fleet.next_seed())
        payload_rng = resolve_rng(fleet.next_seed_sequence())

        with trace_span("cluster.campaign.seed"):
            digests = fleet.seed_objects(
                config.objects, config.object_size, payload_rng
            )

        def disrupted() -> bool:
            return bool(dead_until) or bool(partitioned_until)

        def pick(pool: list[str]) -> str:
            return pool[int(rng.integers(0, len(pool)))]

        def crash_coordinator(step: int) -> None:
            report.coordinator_crashes += 1
            pre_digest = client.status()["state_sha256"]
            racer: threading.Thread | None = None
            race: dict[str, Any] = {}
            if config.midwrite_race:
                # One put races the SIGKILL: acked ⇒ must survive.
                name = f"crash-{step:03d}"
                payload = payload_rng.bytes(config.object_size)
                side = fleet.connect(cell.coordinator, timeout=10.0)

                def racing_put() -> None:
                    try:
                        race["info"] = side.put(name, payload)
                    except Exception as exc:
                        race["error"] = repr(exc)
                    finally:
                        side.close()

                race["name"] = name
                race["sha256"] = hashlib.sha256(payload).hexdigest()
                racer = threading.Thread(target=racing_put)
                racer.start()
                time.sleep(0.05)
            cell.coordinator.kill()
            if racer is not None:
                racer.join()
            cell.spawn_coordinator(recover=True)
            post_digest = client.status()["state_sha256"]
            if config.midwrite_race and race:
                acked = "info" in race
                note(
                    step,
                    "coordinator_crash",
                    midwrite=race["name"],
                    acked=acked,
                )
                if fleet.read(race["name"], race["sha256"]) is None:
                    # Journaled (acked or not): from here on it is an
                    # object like any other and must keep surviving.
                    digests[race["name"]] = race["sha256"]
                elif acked:
                    report.acked_put_lost += 1
                    note(step, "acked_put_lost", object=race["name"])
            else:
                if post_digest == pre_digest:
                    report.recoveries_verified += 1
                else:
                    report.recovery_mismatches += 1
                note(
                    step,
                    "coordinator_crash",
                    recovered=post_digest == pre_digest,
                )

        def kill_node(step: int, spec: NodeCrashes) -> None:
            node_id = pick(sorted(cell.nodes))
            report.node_kills += 1
            cell.nodes[node_id].kill()
            dead_until[node_id] = step + 1 + spec.restart_delay_steps
            note(step, "node_crash", node=node_id)
            # Declare the loss: rebuild its blocks onto survivors.
            client.leave(node_id)

        def partition_node(step: int, spec: NetworkPartitions) -> None:
            node_id = pick(sorted(cell.nodes))
            steps = outage_steps(spec.mean_partition_steps, rng)
            report.partitions += 1
            partitioned_until[node_id] = step + steps
            note(step, "partition", node=node_id, steps=steps)
            cell.admin(node_id, "partition")

        def slow_node(step: int, spec: SlowNodes) -> None:
            # Only live nodes: a dead node's admin port refuses.
            alive = [n for n in sorted(cell.nodes) if n not in dead_until]
            if not alive:
                return
            node_id = pick(alive)
            steps = outage_steps(spec.mean_slow_steps, rng)
            report.slowdowns += 1
            slowed_until[node_id] = step + steps
            note(step, "slow", node=node_id, steps=steps)
            cell.admin(node_id, "slow", delay_seconds=spec.delay_seconds)

        with trace_span("cluster.campaign.run"):
            for step in range(config.steps):
                # 1. Expire outstanding faults due this step.
                for node_id in sorted(dead_until):
                    if dead_until[node_id] <= step:
                        del dead_until[node_id]
                        cell.spawn_node(node_id)  # rejoins + drains
                        note(step, "node_restart", node=node_id)
                for until, kind in (
                    (partitioned_until, "heal"),
                    (slowed_until, "heal_slow"),
                ):
                    for node_id in sorted(until):
                        if until[node_id] <= step:
                            del until[node_id]
                            cell.admin(node_id, "heal")
                            note(step, kind, node=node_id)

                # 2. Draw new faults, fixed order for determinism.
                for spec in specs(CoordinatorCrashes):
                    if rng.random() < spec.rate:
                        crash_coordinator(step)
                for spec in specs(NodeCrashes):
                    if rng.random() < spec.rate and not disrupted():
                        kill_node(step, spec)
                for spec in specs(NetworkPartitions):
                    if rng.random() < spec.rate and not disrupted():
                        partition_node(step, spec)
                for spec in specs(SlowNodes):
                    if rng.random() < spec.rate:
                        slow_node(step, spec)

                # 3. Foreground reads against put-time digests.
                names = sorted(digests)
                for _ in range(_READS_PER_STEP):
                    name = pick(names)
                    error = fleet.read(name, digests[name])
                    if error is None:
                        report.completed_reads += 1
                    elif error == "mismatch":
                        report.mismatched += 1
                        note(step, "mismatch", object=name)
                    else:
                        report.failed_reads += 1

        # Final phase: heal the world, drain repair, verify all.
        with trace_span("cluster.campaign.verify"):
            # Heal the survivors first so the rejoin-triggered repair
            # drains don't grind through RPC deadlines against peers
            # that are still partitioned; then bring the dead back.
            for node_id in sorted(cell.nodes):
                if node_id not in dead_until:
                    cell.admin(node_id, "heal")
                    cell.admin(node_id, "restore")
            for node_id in sorted(dead_until):
                cell.spawn_node(node_id)
            report.repair = client.repair()
            report.total_objects = len(digests)
            report.verified_objects = fleet.verify(digests)
            report.status = client.status()
            report.repair_bytes = report.status.get("repair_bytes", 0)

    report.elapsed_seconds = time.perf_counter() - start
    return report
