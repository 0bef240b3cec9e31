"""The two archive workloads and the in-process cluster they drive.

Load shape: the coordinator and every storage node run in **one**
asyncio loop on **one** background thread — real loopback TCP, the real
``start_coordinator`` / ``start_storage_node`` line servers — and the
main thread drives them through a single blocking ``repro.ClusterClient``.
One caller, closed loop: the next request leaves only after the previous
reply was verified.

``archive_rw`` is the healthy path (a put is 96 stop-and-wait
``block.put`` RPCs, a get is 4 bulk ``block.fetch`` RPCs and no decode);
``archive_degraded`` is everything the healthy path bypasses: plan-cache
misses and hits, XOR replay, scattered and whole-node repair.

Object size is pinned at exactly one stripe (48 data blocks x 768 B =
36 864 B) because today's wire kills any frame over asyncio's 64 KiB
``StreamReader`` limit — see README.md, "Wire ceilings".
"""

from __future__ import annotations

import asyncio
import hashlib
import shutil
import tempfile
import threading
import time
from pathlib import Path
from typing import Any

import numpy as np

import repro
from repro.cluster import (
    ClusterCoordinator,
    StorageNode,
    start_coordinator,
    start_storage_node,
)
from repro.core.sparse import jit_enabled
from repro.storage.blockstore import block_key
from repro.storage.monitor import graph_first_failure

from budget import (
    OpIndex,
    Tally,
    exclusive_by_kind,
    format_budget,
    span_triples,
)
from common import (
    Checks,
    PhaseClock,
    Round,
    Stat,
    durations,
    median_stat,
)
from layers import Recorder

SCRATCH = Path(__file__).resolve().parent / "results"
DARK_NODE = "node-1"


class Cluster:
    """Coordinator + storage nodes on one background event loop."""

    def __init__(self, graph, *, nodes: int, block_size: int):
        SCRATCH.mkdir(exist_ok=True)
        self.wal_dir = tempfile.mkdtemp(prefix="wal-", dir=SCRATCH)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="perf-cluster", daemon=True
        )
        self.thread.start()
        self.nodes: dict[str, StorageNode] = {}
        self.servers: dict[str, asyncio.base_events.Server] = {}
        self.node_clients: dict[str, repro.ClusterClient] = {}
        self.coordinator = ClusterCoordinator(
            graph, block_size=block_size, wal_dir=self.wal_dir
        )
        host, port = self.run(
            self._serve("coordinator", start_coordinator, self.coordinator)
        )
        self.client = repro.ClusterClient(host, port).connect()
        for i in range(nodes):
            node = StorageNode(f"node-{i}", seed=i)
            nhost, nport = self.run(
                self._serve(node.node_id, start_storage_node, node)
            )
            self.nodes[node.node_id] = node
            self.client.join(node.node_id, nhost, nport)
            self.node_clients[node.node_id] = repro.ClusterClient(
                nhost, nport
            )

    def run(self, coro):
        """Run ``coro`` on the cluster's loop; block for its result."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result()

    async def _serve(self, key: str, start, target) -> tuple[str, int]:
        server = self.servers[key] = await start(target)
        return server.sockets[0].getsockname()[:2]

    def stored_bytes(self) -> int:
        return sum(n.store.stats()["bytes_stored"] for n in self.nodes.values())

    def block_reads(self) -> int:
        return sum(n.store.stats()["gets"] for n in self.nodes.values())

    def darken(self, node_id: str) -> dict[str, bool]:
        """Take one node off the network; returns the probe's verdict.

        Closing an asyncio server leaves its accepted connections open,
        so the coordinator's pooled link is reset as well — the same two
        steps the cluster tests use for a SIGKILL analogue.
        """
        self.node_clients.pop(node_id).close()

        async def go():
            self.servers[node_id].close()
            coordinator = self.coordinator
            coordinator._reset_connection(coordinator.nodes[node_id])
            return await coordinator.probe()

        return self.run(go())

    def close(self) -> None:
        self.client.close()
        for client in self.node_clients.values():
            client.close()
        self.run(self._shutdown())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join()
        self.loop.close()
        shutil.rmtree(self.wal_dir, ignore_errors=True)

    async def _shutdown(self) -> None:
        for link in self.coordinator.nodes.values():
            self.coordinator._reset_connection(link)
        for server in self.servers.values():
            server.close()
        # Every peer socket is closed now, so each connection handler
        # reads EOF and returns; wait for them so none dies pending.
        pending = [
            t for t in asyncio.all_tasks() if t is not asyncio.current_task()
        ]
        if pending:
            await asyncio.wait(pending, timeout=10)
        if self.coordinator.wal is not None:
            self.coordinator.wal.close()


class _Archive:
    """Shared shape of the archive workloads (graph, sizes, timed ops)."""

    def __init__(
        self, seed: int, *, nodes: int, graph_number: int, block_size: int
    ):
        self.seed = seed
        self.num_nodes = nodes
        self.graph_number = graph_number
        self.block_size = block_size
        self.graph = None
        self.object_size = 0

    def _build_graph(self) -> None:
        self.graph = repro.tornado_catalog_graph(self.graph_number)
        # Exactly one stripe: every data block full, no padding.
        self.object_size = self.graph.num_data * self.block_size

    def _start_cluster(self) -> Cluster:
        return Cluster(
            self.graph, nodes=self.num_nodes, block_size=self.block_size
        )

    def _payloads(self, index: int, prefix: str, count: int) -> dict[str, bytes]:
        rng = np.random.default_rng([self.seed, index])
        return {
            f"{prefix}{index}-{i}": rng.bytes(self.object_size)
            for i in range(count)
        }

    def _base_config(self) -> dict[str, Any]:
        return {
            "graph": self.graph.name,
            "nodes": self.num_nodes,
            "block_size": self.block_size,
            "object_size": self.object_size,
            "wal": "fsync",
            "engine": repro.resolve_engine(
                "auto", num_nodes=self.graph.num_nodes
            ),
            "jit_enabled": jit_enabled(),
        }

    @staticmethod
    def _timed(rnd: Round, kind: str, checks: Checks, call, *args, **kwargs):
        """One client call as a timed operation; an exception is a failure."""
        start = time.perf_counter()
        try:
            result = call(*args, **kwargs)
        except Exception as exc:  # counted, reported, run continues
            result = None
            checks.check(False, f"{kind} raised {exc!r}")
        rnd.windows.append((kind, start, time.perf_counter()))
        return result

    def _read(self, rnd, kind, checks, client, name, payload) -> None:
        got = self._timed(
            rnd, kind, checks, client.get, name, want_payload=True
        )
        if got is not None:
            checks.check(got.payload == payload, f"{kind} {name}: wrong bytes")

    # -- per-layer numbers (traced rounds) -------------------------------

    def layer_metrics(
        self,
        rounds: list[Round],
        recorder: Recorder,
        span_records: list[dict[str, Any]],
        warm: Round,
        warm_recorder: Recorder,
    ) -> tuple[dict[str, float], list[str]]:
        ops = OpIndex(w for r in rounds for w in r.windows)
        rpc = span_triples(span_records, "cluster.rpc.")
        client = span_triples(span_records, "client.")
        repair = span_triples(span_records, "cluster.repair.")
        tallies = {
            key: ops.tally(records)
            for key, records in recorder.records.items()
        }
        tallies["rpc"] = ops.tally(rpc)
        tallies["repair.spans"] = ops.tally(repair)

        def iv(records):
            return [(s, e) for s, e, _ in records]

        table = exclusive_by_kind(
            ops,
            [  # innermost first
                ("storage.blockstore",
                 recorder.intervals("blockstore.put", "blockstore.get")),
                ("cluster.node", recorder.intervals("node.handle")),
                ("serve.protocol",
                 recorder.intervals("protocol.encode", "protocol.parse")),
                ("core.codec", recorder.intervals(
                    "codec.encode", "codec.encode_blocks", "codec.replay")),
                ("serve.plancache", recorder.intervals("plancache.schedule")),
                ("cluster.wal", recorder.intervals("wal.append")),
                ("cluster.rpc", iv(rpc)),
                ("cluster.coordinator",
                 recorder.intervals("coordinator.put", "coordinator.get")),
                ("cluster.scheduler", iv(repair)),
                ("serve.client", iv(client)),
            ],
        )

        def per_op(key: str, kind: str, field: str = "seconds") -> float:
            n = ops.count.get(kind, 0)
            tally = tallies.get(key, {}).get(kind)
            return getattr(tally, field) / n if n and tally else 0.0

        def ms(key: str, kind: str) -> float:
            return 1e3 * per_op(key, kind)

        def framing_ms(kind: str) -> float:
            return ms("protocol.encode", kind) + ms("protocol.parse", kind)

        def self_ms(layer: str, kind: str) -> float:
            n = ops.count.get(kind, 0)
            return 1e3 * table[kind][layer] / n if n else 0.0

        def unattributed(kind: str) -> float:
            total = ops.seconds.get(kind, 0.0)
            return table[kind]["unattributed"] / total if total else 0.0

        def mbps(key: str) -> float:
            seconds = sum(t.seconds for t in tallies.get(key, {}).values())
            nbytes = sum(t.extra for t in tallies.get(key, {}).values())
            return nbytes / 1e6 / seconds if seconds else 0.0

        lookups = [
            (end - start, hit)
            for start, end, hit in recorder.records.get(
                "plancache.schedule", ()
            )
        ]
        read_lookups = sum(
            tallies.get("plancache.schedule", {}).get(kind, Tally()).count
            for kind in ("scattered_get", "degraded_get")
        )
        read_hits = sum(
            tallies.get("plancache.schedule", {}).get(kind, Tally()).extra
            for kind in ("scattered_get", "degraded_get")
        )

        def lookup_ms(want_hit: bool) -> float:
            took = [d for d, hit in lookups if hit == want_hit]
            return 1e3 * sum(took) / len(took) if took else 0.0

        # Frames as shipped: counted on the warm-up round, wrappers only.
        warm_ops = OpIndex(warm.windows)
        frames = warm_ops.tally(warm_recorder.records["protocol.encode"])

        def per_frame_op(kind: str, field: str) -> float:
            n = warm_ops.count.get(kind, 0)
            return getattr(frames[kind], field) / n if n else 0.0

        size = self.object_size
        metrics = {
            "serve.client.self_ms_per_put": self_ms("serve.client", "put"),
            "serve.client.self_ms_per_get": self_ms("serve.client", "get"),
            "serve.protocol.frame_ms_per_put": framing_ms("put"),
            "serve.protocol.frame_ms_per_get": framing_ms("get"),
            "serve.protocol.frame_ms_per_degraded_get":
                framing_ms("degraded_get"),
            "serve.protocol.frames_per_put": per_frame_op("put", "count"),
            "serve.protocol.frames_per_get": per_frame_op("get", "count"),
            "serve.protocol.wire_bytes_per_payload_byte.put":
                per_frame_op("put", "extra") / size,
            "serve.protocol.wire_bytes_per_payload_byte.get":
                per_frame_op("get", "extra") / size,
            "cluster.rpc.span_ms_per_put": ms("rpc", "put"),
            "cluster.rpc.span_ms_per_get": ms("rpc", "get"),
            "cluster.rpc.count_per_put": per_op("rpc", "put", "count"),
            "cluster.rpc.count_per_get": per_op("rpc", "get", "count"),
            "cluster.coordinator.self_ms_per_put":
                self_ms("cluster.coordinator", "put"),
            "cluster.coordinator.self_ms_per_get":
                self_ms("cluster.coordinator", "get"),
            "cluster.coordinator.self_ms_per_degraded_get":
                self_ms("cluster.coordinator", "degraded_get"),
            "cluster.node.handle_ms_per_put": ms("node.handle", "put"),
            "cluster.node.handle_ms_per_get": ms("node.handle", "get"),
            "storage.blockstore.ms_per_put": ms("blockstore.put", "put"),
            "storage.blockstore.ms_per_get": ms("blockstore.get", "get"),
            "cluster.wal.append_ms_per_put": ms("wal.append", "put"),
            "core.codec.encode_ms_per_put": ms("codec.encode", "put"),
            "core.codec.encode_MBps": mbps("codec.encode"),
            "core.codec.replay_ms_per_degraded_get":
                ms("codec.replay", "degraded_get"),
            "core.codec.replay_MBps": mbps("codec.replay"),
            "serve.plancache.schedule_ms_miss": lookup_ms(False),
            "serve.plancache.schedule_ms_hit": lookup_ms(True),
            "serve.plancache.hit_ratio":
                read_hits / read_lookups if read_lookups else 0.0,
            "op.put.unattributed_share": unattributed("put"),
            "op.get.unattributed_share": unattributed("get"),
            "op.degraded_get.unattributed_share":
                unattributed("degraded_get"),
            "op.repair.unattributed_share": unattributed("repair"),
        }
        metrics.update(self._repair_metrics(rounds, tallies))
        return metrics, format_budget(table, ops)

    def _repair_metrics(self, rounds, tallies) -> dict[str, float]:
        return {}


class ArchiveRW(_Archive):
    """Writes beside reads on the healthy path of one long-lived cluster."""

    name = "archive_rw"
    nominal_round_s = 1.3

    def __init__(
        self,
        seed: int,
        *,
        nodes: int = 4,
        graph_number: int = 3,
        block_size: int = 768,
        puts_per_round: int = 48,
        gets_per_round: int = 288,
    ):
        super().__init__(
            seed, nodes=nodes, graph_number=graph_number,
            block_size=block_size,
        )
        self.puts_per_round = puts_per_round
        self.gets_per_round = gets_per_round
        self.cluster: Cluster | None = None
        self.objects: dict[str, bytes] = {}
        self._first: dict[str, bytes] | None = None

    def setup(self) -> None:
        self._build_graph()
        self.cluster = self._start_cluster()
        self.objects = {}
        self._first = self._payloads(0, "o", self.puts_per_round)

    def teardown(self) -> None:
        if self.cluster is not None:
            self.cluster.close()
            self.cluster = None

    def config(self) -> dict[str, Any]:
        return {
            **self._base_config(),
            "puts_per_round": self.puts_per_round,
            "gets_per_round": self.gets_per_round,
        }

    def round(self, index: int, checks: Checks) -> Round:
        rnd = Round()
        client = self.cluster.client
        fresh, self._first = (
            self._first or self._payloads(index, "o", self.puts_per_round),
            None,
        )
        picks = np.random.default_rng([self.seed, index, 1])
        with PhaseClock(rnd):
            for name, payload in fresh.items():
                info = self._timed(
                    rnd, "put", checks, client.put, name, payload
                )
                if info is not None:
                    checks.check(
                        info["failed_blocks"] == 0
                        and info["size"] == len(payload),
                        f"put {name}: {info}",
                    )
                self.objects[name] = payload
            names = list(self.objects)
            for j in picks.integers(0, len(names), self.gets_per_round):
                name = names[j]
                self._read(rnd, "get", checks, client, name, self.objects[name])
        rnd.counts["put_bytes"] = float(len(fresh) * self.object_size)
        rnd.counts["get_bytes"] = float(
            self.gets_per_round * self.object_size
        )
        return rnd

    def verify(self, checks: Checks) -> None:
        """Every object ever put is still there, bit for bit."""
        client = self.cluster.client
        for name, payload in self.objects.items():
            got = client.get(name)
            checks.check(
                got.sha256 == hashlib.sha256(payload).hexdigest(),
                f"final sha256 of {name}",
            )

    def named(self, rounds: list[Round]) -> dict[str, Stat]:
        def mbps(kind: str) -> Stat:
            return median_stat([
                r.counts[f"{kind}_bytes"] / 1e6
                / sum(durations(r.windows, kind))
                for r in rounds
            ])

        def p50_ms(kind: str) -> Stat:
            return median_stat([
                1e3 * d for r in rounds for d in durations(r.windows, kind)
            ])

        payload_bytes = len(self.objects) * self.object_size
        return {
            "put_MBps": mbps("put"),
            "put_p50_ms": p50_ms("put"),
            "get_MBps": mbps("get"),
            "get_p50_ms": p50_ms("get"),
            "stored_bytes_per_payload_byte": Stat(
                self.cluster.stored_bytes() / payload_bytes
            ),
        }


class ArchiveDegraded(_Archive):
    """A fresh cluster per round, damaged twice and repaired twice.

    Timed phases: (A) two read passes over stripes missing
    ``first_failure - 1`` scattered blocks each — 64 distinct masks, so
    pass 1 is all plan misses and pass 2 all hits; (B) the ``repair``
    drain that rebuilds them; (C) three read passes with one node dark —
    a stride mask, a quarter of every stripe replayed by XOR; (D)
    ``leave`` of the dark node — rebuild a quarter of every stripe and
    re-shard the rest onto three members.  Untimed: cluster start,
    preload, block deletion, the probe, and the sha256 re-checks after B
    and D.
    """

    name = "archive_degraded"
    nominal_round_s = 4.0  # timed phases plus cluster start and preload

    def __init__(
        self,
        seed: int,
        *,
        nodes: int = 4,
        graph_number: int = 3,
        block_size: int = 768,
        objects: int = 64,
    ):
        super().__init__(
            seed, nodes=nodes, graph_number=graph_number,
            block_size=block_size,
        )
        self.num_objects = objects
        self.first_failure = 0
        self._staged: tuple[Cluster, dict[str, bytes]] | None = None
        self._plan_stats: list[dict[str, int]] = []

    def setup(self) -> None:
        self._build_graph()
        self.first_failure = graph_first_failure(self.graph)
        self._staged = self._stage(0)

    def _stage(self, index: int) -> tuple[Cluster, dict[str, bytes]]:
        return (
            self._start_cluster(),
            self._payloads(index, "d", self.num_objects),
        )

    def teardown(self) -> None:
        if self._staged is not None:
            self._staged[0].close()
            self._staged = None

    def config(self) -> dict[str, Any]:
        return {
            **self._base_config(),
            "objects": self.num_objects,
            "scattered_losses_per_stripe": self.first_failure - 1,
            "dark_node": DARK_NODE,
        }

    def round(self, index: int, checks: Checks) -> Round:
        cluster, objects = self._staged or self._stage(index)
        self._staged = None
        try:
            return self._round(index, cluster, objects, checks)
        finally:
            cluster.close()

    def _round(self, index, cluster, objects, checks) -> Round:
        rnd = Round()
        client = cluster.client
        bs = self.block_size
        n_graph = self.graph.num_nodes
        rng = np.random.default_rng([self.seed, index, 1])
        for name, payload in objects.items():
            info = client.put(name, payload)
            checks.check(info["failed_blocks"] == 0, f"preload {name}")

        # (A) scattered damage: first_failure-1 blocks of every stripe.
        lost_per_stripe = self.first_failure - 1
        for name in objects:
            (record,) = cluster.coordinator.manifests[name].stripes
            for node in rng.choice(n_graph, lost_per_stripe, replace=False):
                owner = cluster.node_clients[record.placement[node]]
                deleted = owner.block_delete(
                    block_key(name, record.index, int(node))
                )
                checks.check(deleted, f"delete {name}/{node}")
        with PhaseClock(rnd):
            for _ in range(2):
                for name, payload in objects.items():
                    self._read(
                        rnd, "scattered_get", checks, client, name, payload
                    )

        # (B) rebuild the scattered blocks.
        reads_before = cluster.block_reads()
        with PhaseClock(rnd):
            summary_b = self._repair(rnd, client.repair)
        read_blocks = cluster.block_reads() - reads_before
        self._check_repair(cluster, objects, summary_b, checks, "B")
        rnd.counts["scattered_rebuilt_blocks"] = float(
            summary_b["rebuilt_blocks"]
        )
        rnd.counts["scattered_repair_s"] = durations(rnd.windows, "repair")[0]

        # (C) one node dark: a quarter of every stripe behind XOR replay.
        liveness = cluster.darken(DARK_NODE)
        checks.check(
            not liveness[DARK_NODE] and sum(liveness.values())
            == self.num_nodes - 1,
            f"probe after darkening: {liveness}",
        )
        dark_blocks = sum(
            record.placement.count(DARK_NODE)
            for name in objects
            for record in cluster.coordinator.manifests[name].stripes
        )
        with PhaseClock(rnd):
            for _ in range(3):
                for name, payload in objects.items():
                    self._read(
                        rnd, "degraded_get", checks, client, name, payload
                    )

        # (D) the dark node leaves: rebuild its blocks, re-shard the rest.
        reads_before = cluster.block_reads()
        with PhaseClock(rnd):
            summary_d = self._repair(rnd, client.leave, DARK_NODE)
        read_blocks += cluster.block_reads() - reads_before
        # (E)
        self._check_repair(cluster, objects, summary_d, checks, "D")

        lost_blocks = lost_per_stripe * len(objects) + dark_blocks
        moved = sum(s["moved_bytes"] for s in (summary_b, summary_d))
        rebuilt = sum(s["rebuilt_bytes"] for s in (summary_b, summary_d))
        rnd.counts.update(
            degraded_bytes=float(3 * len(objects) * self.object_size),
            repair_bytes=float(moved + rebuilt),
            lost_bytes=float(lost_blocks * bs),
            repair_read_bytes=float(read_blocks * bs),
            rebuilt_blocks=float(
                summary_b["rebuilt_blocks"] + summary_d["rebuilt_blocks"]
            ),
            moved_blocks=float(
                summary_b["moved_blocks"] + summary_d["moved_blocks"]
            ),
        )
        self._plan_stats.append(cluster.coordinator.plans.stats())
        return rnd

    @staticmethod
    def _repair(rnd: Round, call, *args) -> dict[str, Any]:
        """One repair drain as a timed operation (a raise ends the run)."""
        start = time.perf_counter()
        summary = call(*args)
        rnd.windows.append(("repair", start, time.perf_counter()))
        return summary

    def _check_repair(self, cluster, objects, summary, checks, phase) -> None:
        checks.check(
            summary["unrepairable_blocks"] == 0,
            f"phase {phase}: repair summary {summary}",
        )
        for name, payload in objects.items():
            got = cluster.client.get(name)
            checks.check(
                got.sha256 == hashlib.sha256(payload).hexdigest(),
                f"phase {phase}: sha256 of {name}",
            )

    def verify(self, checks: Checks) -> None:
        """Phase A must be half plan misses, or the workload is not what
        it says: one distinct mask per stripe, each seen exactly twice."""
        for stats in self._plan_stats:
            checks.check(
                stats["misses"] >= self.num_objects,
                f"plan cache saw {stats}",
            )

    def named(self, rounds: list[Round]) -> dict[str, Stat]:
        return {
            "degraded_get_MBps": median_stat([
                r.counts["degraded_bytes"] / 1e6
                / sum(durations(r.windows, "degraded_get"))
                for r in rounds
            ]),
            "degraded_get_p50_ms": median_stat([
                1e3 * d for r in rounds
                for d in durations(r.windows, "degraded_get")
            ]),
            "repair_MBps": median_stat([
                r.counts["repair_bytes"] / 1e6
                / sum(durations(r.windows, "repair"))
                for r in rounds
            ]),
            "repair_read_bytes_per_lost_byte": Stat(
                sum(r.counts["repair_read_bytes"] for r in rounds)
                / sum(r.counts["lost_bytes"] for r in rounds)
            ),
        }

    def _repair_metrics(self, rounds, tallies) -> dict[str, float]:
        n = len(rounds)
        lost = sum(r.counts["lost_bytes"] for r in rounds)
        rebuilt_b = sum(r.counts["scattered_rebuilt_blocks"] for r in rounds)
        return {
            "cluster.scheduler.repair_s":
                tallies["repair.spans"]["repair"].seconds / n,
            "cluster.scheduler.scattered_repair_ms_per_block":
                1e3 * sum(r.counts["scattered_repair_s"] for r in rounds)
                / rebuilt_b,
            "cluster.scheduler.rebuilt_blocks":
                sum(r.counts["rebuilt_blocks"] for r in rounds) / n,
            "cluster.scheduler.moved_blocks":
                sum(r.counts["moved_blocks"] for r in rounds) / n,
            "cluster.scheduler.write_bytes_per_lost_byte":
                sum(r.counts["repair_bytes"] for r in rounds) / lost,
        }
