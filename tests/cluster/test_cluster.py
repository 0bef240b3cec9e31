"""Coordinator end-to-end: placement, degraded reads, repair, traces."""

import asyncio
import hashlib

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator, StorageNode, start_storage_node
from repro.cluster.coordinator import start_coordinator
from repro.core.critical import minimal_bad_stopping_sets
from repro.graphs import tornado_catalog_graph
from repro.obs.registry import capture
from repro.obs.trace import Tracer, trace_capture
from repro.serve.client import ClusterClient
from repro.serve.plancache import PlanCache
from repro.serve.protocol import BlockFetchRequest
from repro.storage.archive import DataLossError
from repro.storage.blockstore import block_key
from repro.storage.device import TransientUnavailableError


def catalog_graph():
    return tornado_catalog_graph(3)  # 96 graph nodes, 48 data


class Cluster:
    """An in-process coordinator plus N served storage nodes."""

    def __init__(self, coordinator, nodes, servers):
        self.coordinator = coordinator
        self.nodes = nodes
        self.servers = servers

    @classmethod
    async def start(cls, members=3, block_size=64, wal_dir=None):
        coordinator = ClusterCoordinator(
            catalog_graph(), block_size=block_size, wal_dir=wal_dir
        )
        nodes, servers = {}, {}
        for i in range(members):
            node_id = f"node-{i}"
            node = StorageNode(node_id, seed=i)
            server = await start_storage_node(node, port=0)
            host, port = server.sockets[0].getsockname()[:2]
            await coordinator.register(node_id, host, port)
            nodes[node_id], servers[node_id] = node, server
        return cls(coordinator, nodes, servers)

    async def kill(self, node_id):
        """SIGKILL analogue: server gone, connection dropped."""
        self.servers[node_id].close()
        await self.servers[node_id].wait_closed()
        self.coordinator.nodes[node_id].drop()

    async def close(self):
        for server in self.servers.values():
            server.close()


def run(coro):
    return asyncio.run(coro)


def payload_bytes(n, seed=0):
    return np.random.default_rng(seed).bytes(n)


class TestPlacement:
    def test_stripe_placement_is_a_rotation_of_the_membership(self):
        async def check():
            cluster = await Cluster.start(members=3)
            coord = cluster.coordinator
            placement = coord._stripe_placement("obj", 0)
            members = coord.ring.members
            assert len(placement) == coord.graph.num_nodes
            anchor = members.index(placement[0])
            for j, node_id in enumerate(placement):
                assert node_id == members[(anchor + j) % len(members)]
            await cluster.close()

        run(check())

    def test_single_node_loss_is_always_decodable(self):
        # The certified property behind striding: for any membership
        # size >= 3 and any anchor, losing one member erases a strided
        # mask the catalog graph decodes.
        graph = catalog_graph()
        plans = PlanCache(64)
        for members in (3, 4, 5):
            for lost in range(members):
                for anchor in range(members):
                    missing = [
                        j
                        for j in range(graph.num_nodes)
                        if (anchor + j) % members == lost
                    ]
                    assert plans.schedule(
                        graph, missing
                    ).success, (members, lost, anchor)

    def test_put_records_placement_in_manifest(self):
        async def check():
            cluster = await Cluster.start(members=3)
            coord = cluster.coordinator
            await coord.put("obj", payload_bytes(2000))
            manifest = coord.manifests["obj"]
            for record in manifest.stripes:
                assert record.placement == coord._stripe_placement(
                    "obj", record.index
                )
            await cluster.close()

        run(check())


class TestEndToEnd:
    def test_put_get_round_trip(self):
        async def check():
            cluster = await Cluster.start(members=3)
            coord = cluster.coordinator
            payload = payload_bytes(12800)
            info = await coord.put("obj", payload)
            assert info["failed_blocks"] == 0
            got = await coord.get("obj", want_payload=True)
            assert got.payload == payload
            assert (
                got.sha256 == hashlib.sha256(payload).hexdigest()
            )
            await cluster.close()

        run(check())

    def test_degraded_read_with_one_node_dead(self):
        async def check():
            cluster = await Cluster.start(members=3)
            coord = cluster.coordinator
            payload = payload_bytes(9000, seed=1)
            await coord.put("obj", payload)
            await cluster.kill("node-0")
            got = await coord.get("obj", want_payload=True)
            assert got.payload == payload
            await cluster.close()

        run(check())

    def test_transient_outage_decodes_around_the_dark_node(self):
        async def check():
            cluster = await Cluster.start(members=3)
            coord = cluster.coordinator
            payload = payload_bytes(5000, seed=2)
            await coord.put("obj", payload)
            cluster.nodes["node-1"].interrupt(steps=100)
            got = await coord.get("obj", want_payload=True)
            assert got.payload == payload
            # Blocks were never lost — restore and read again.
            cluster.nodes["node-1"].restore()
            got = await coord.get("obj", want_payload=True)
            assert got.payload == payload
            await cluster.close()

        run(check())

    def test_leave_rebuilds_lost_blocks_and_meters_bytes(self):
        async def check():
            cluster = await Cluster.start(members=3)
            coord = cluster.coordinator
            payload = payload_bytes(12800, seed=3)
            await coord.put("obj", payload)
            await cluster.kill("node-0")
            summary = await coord.deregister("node-0")
            assert summary["rebuilt_blocks"] > 0
            assert summary["unrepairable_blocks"] == 0
            assert coord.repair_bytes > 0
            per_node = coord.repair_bytes_by_node
            assert set(per_node) <= {"node-1", "node-2"}
            assert sum(per_node.values()) == coord.repair_bytes
            got = await coord.get("obj", want_payload=True)
            assert got.payload == payload
            status = await coord.status()
            assert status["repair_bytes"] == coord.repair_bytes
            await cluster.close()

        run(check())

    def test_rejoin_re_shards_back_and_leaves_no_strays(self):
        async def check():
            cluster = await Cluster.start(members=3)
            coord = cluster.coordinator
            payload = payload_bytes(12800, seed=4)
            await coord.put("obj", payload)
            await cluster.kill("node-0")
            await coord.deregister("node-0")
            # Fresh empty node under the old name rejoins.
            node = StorageNode("node-0", seed=9)
            server = await start_storage_node(node, port=0)
            host, port = server.sockets[0].getsockname()[:2]
            cluster.nodes["node-0"] = node
            cluster.servers["node-0"] = server
            summary = await coord.register("node-0", host, port)
            assert summary["moved_blocks"] > 0
            got = await coord.get("obj", want_payload=True)
            assert got.payload == payload
            # Every block held exactly once cluster-wide, and the
            # manifests' recorded placement matches reality.
            holders = await coord._inventory()
            assert all(len(v) == 1 for v in holders.values())
            for record in coord.manifests["obj"].stripes:
                assert record.placement == coord._stripe_placement(
                    "obj", record.index
                )
            await cluster.close()

        run(check())

    def test_all_nodes_lost_is_unavailable_not_silence(self):
        async def check():
            cluster = await Cluster.start(members=3)
            coord = cluster.coordinator
            await coord.put("obj", payload_bytes(1000, seed=5))
            for node_id in list(cluster.servers):
                await cluster.kill(node_id)
            with pytest.raises(TransientUnavailableError):
                await coord.get("obj")
            await cluster.close()

        run(check())

    def test_a_put_is_acked_only_when_every_stripe_decodes(self, tmp_path):
        async def check():
            cluster = await Cluster.start(members=4, wal_dir=tmp_path)
            coord = cluster.coordinator
            await cluster.kill("node-3")
            payload = payload_bytes(3000, seed=6)  # one stripe
            info = await coord.put("one-dark", payload)
            assert (info["blocks"], info["failed_blocks"]) == (72, 24)
            got = await coord.get("one-dark", want_payload=True)
            assert got.payload == payload
            await cluster.kill("node-2")
            manifests, seq = dict(coord.manifests), coord.wal.seq
            journal = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
            # Half the stripe cannot land: acking it would promise an
            # object no rejoin could make readable.
            with pytest.raises(TransientUnavailableError, match="48 of 96"):
                await coord.put("two-dark", payload_bytes(3000, seed=7))
            assert coord.manifests == manifests and coord.wal.seq == seq
            assert journal == {
                f.name: f.read_bytes() for f in tmp_path.iterdir()
            }
            coord.wal.close()
            await cluster.close()

        run(check())

    def test_unknown_object_raises_key_error(self):
        async def check():
            cluster = await Cluster.start(members=3)
            with pytest.raises(KeyError):
                await cluster.coordinator.get("ghost")
            await cluster.close()

        run(check())

    def test_decode_headroom_names_the_nodes_one_loss_from_data_loss(self):
        async def check():
            cluster = await Cluster.start(members=4)
            coord = cluster.coordinator
            await coord.put("obj", payload_bytes(5000, seed=2))
            stripes = len(coord.manifests["obj"].stripes)
            healthy = await coord.decode_headroom()
            assert healthy == {
                "engine": "bitset",
                "cases": stripes * 5,  # base + one per live node
                "dead_nodes": [],
                "failing_now": [],
                "at_risk_nodes": [],
            }
            await cluster.kill("node-1")
            degraded = await coord.decode_headroom()
            assert degraded["dead_nodes"] == ["node-1"]
            assert degraded["cases"] == stripes * 4
            assert degraded["failing_now"] == []
            # A quarter of each stripe is dark; any second node is fatal.
            assert degraded["at_risk_nodes"] == ["node-0", "node-2", "node-3"]
            assert (await coord.status())["engine"] == "bitset"
            await cluster.close()

        run(check())


class TestRpcTimeoutValidation:
    @pytest.mark.parametrize(
        "timeout, error", [(True, TypeError), (float("nan"), ValueError)]
    )
    def test_coordinator_refuses_before_any_side_effect(
        self, tmp_path, timeout, error
    ):
        wal_dir = tmp_path / "wal"
        with pytest.raises(error, match="rpc_timeout"):
            ClusterCoordinator(
                catalog_graph(), wal_dir=wal_dir, rpc_timeout=timeout
            )
        assert not wal_dir.exists()


class TestUntrustedFetchReplies:
    """A node's ``block.fetch`` reply is checked, not trusted: a block
    of the wrong length or under a key nobody asked for is an erasure."""

    @staticmethod
    async def healthy_object():
        cluster = await Cluster.start(members=4)
        payload = payload_bytes(48 * 64, seed=4)
        info = await cluster.coordinator.put("obj", payload)
        assert info["failed_blocks"] == 0
        (record,) = cluster.coordinator.manifests["obj"].stripes
        return cluster, record, payload

    @staticmethod
    def truncate(cluster, record, graph_nodes):
        for node in graph_nodes:
            cluster.nodes[record.placement[node]].store.put(
                block_key("obj", record.index, node), b"\x00" * 10
            )

    def test_wrong_length_block_is_decoded_around(self):
        async def check():
            cluster, record, payload = await self.healthy_object()
            self.truncate(cluster, record, [7])
            got = await cluster.coordinator.get("obj", want_payload=True)
            assert got.payload == payload
            raw = await cluster.coordinator.fetch_stripe_raw("obj", 0)
            assert sorted(map(int, raw.blocks)) == [
                n for n in range(96) if n != 7
            ]
            await cluster.close()

        with capture() as registry:
            run(check())
        counters = registry.snapshot()["counters"]
        assert counters["cluster.get.degraded"] == 1
        assert counters["cluster.fetch.malformed_blocks"] == 2

    def test_unrequested_key_is_dropped_not_a_key_error(self):
        async def check():
            cluster, record, payload = await self.healthy_object()
            liar = cluster.nodes["node-2"]
            honest = liar.handle

            def handle(request):
                response = honest(request)
                if isinstance(request, BlockFetchRequest):
                    response.blocks["obj/0/unasked"] = b"\x01" * 64
                    response.blocks["other/9/3"] = b"\x02" * 64
                return response

            liar.handle = handle
            got = await cluster.coordinator.get("obj", want_payload=True)
            assert got.payload == payload
            await cluster.close()

        with capture() as registry:
            run(check())
        counters = registry.snapshot()["counters"]
        assert counters["cluster.fetch.malformed_blocks"] == 2
        # Nothing that was asked for is missing: a healthy read.
        assert "cluster.get.degraded" not in counters

    def test_malformed_blocks_over_a_stopping_set_are_data_loss(self):
        critical = minimal_bad_stopping_sets(catalog_graph(), max_size=5)

        async def check():
            cluster, record, _ = await self.healthy_object()
            self.truncate(cluster, record, critical[0])
            with pytest.raises(DataLossError) as excinfo:
                await cluster.coordinator.get("obj", want_payload=True)
            assert set(excinfo.value.residual) <= critical[0]
            await cluster.close()

        assert critical
        run(check())


class TestServedCoordinator:
    def test_client_against_served_coordinator(self):
        async def serve_and_exercise():
            cluster = await Cluster.start(members=3)
            server = await start_coordinator(
                cluster.coordinator, port=0
            )
            host, port = server.sockets[0].getsockname()[:2]

            def exercise():
                payload = payload_bytes(4000, seed=6)
                with ClusterClient(host, port) as client:
                    info = client.put("obj", payload)
                    assert info["failed_blocks"] == 0
                    got = client.get("obj", want_payload=True)
                    assert got.payload == payload
                    status = client.status()
                    assert len(status["nodes"]) == 3
                    assert all(
                        entry["alive"]
                        for entry in status["nodes"].values()
                    )
                    repair = client.repair()
                    assert repair["unrepairable_blocks"] == 0

            await asyncio.to_thread(exercise)
            server.close()
            await cluster.close()

        run(serve_and_exercise())


class TestTraceStitching:
    def test_cluster_wide_span_tree_has_no_orphans(self):
        tracer = Tracer(seed=5)

        async def check():
            cluster = await Cluster.start(members=3)
            coord = cluster.coordinator
            payload = payload_bytes(3000, seed=7)
            await coord.put("obj", payload)
            got = await coord.get("obj", want_payload=True)
            assert got.payload == payload
            await cluster.close()

        with trace_capture(tracer):
            run(check())
        records = tracer.records
        by_id = {r["span_id"]: r for r in records}
        names = {r["name"] for r in records}
        # Coordinator RPC spans and shipped node spans both landed.
        assert any(n.startswith("cluster.rpc.") for n in names)
        assert any(n.startswith("node.") for n in names)
        orphans = [
            r
            for r in records
            if r.get("parent_id") and r["parent_id"] not in by_id
        ]
        assert orphans == []
        # Node spans parent under the coordinator's RPC spans.
        for r in records:
            if r["name"].startswith("node."):
                parent = by_id[r["parent_id"]]
                assert parent["name"].startswith("cluster.rpc.")
                assert parent["trace_id"] == r["trace_id"]


class TestMetricsScrapePlane:
    def test_snapshot_and_legacy_metrics_over_the_wire(self):
        from repro.obs import MetricsRegistry, capture
        from repro.obs.prom import render_prometheus
        from repro.obs.registry import registry

        async def serve_and_scrape():
            cluster = await Cluster.start(members=3)
            await cluster.coordinator.put("obj", payload_bytes(4000))
            server = await start_coordinator(
                cluster.coordinator, port=0
            )
            host, port = server.sockets[0].getsockname()[:2]

            def scrape():
                with ClusterClient(host, port) as client:
                    snap = client.metrics_snapshot()
                    assert snap.role == "coordinator"
                    assert snap.source == "coordinator"
                    gauges = snap.snapshot["gauges"]
                    assert gauges["cluster.objects"] == 1.0
                    assert gauges["cluster.members"] == 3.0
                    assert gauges["cluster.repair.healthy_margin"] >= 1
                    # The text op renders that same snapshot: what the
                    # registry holds plus the synthesized gauges.
                    text = client.metrics()
                    assert text == render_prometheus(snap.snapshot)
                    for line in render_prometheus(
                        registry().snapshot()
                    ).splitlines():
                        assert line in text
                    assert "repro_cluster_put_blocks_total 192" in text

            await asyncio.to_thread(scrape)
            server.close()
            await cluster.close()

        with capture(MetricsRegistry()):
            run(serve_and_scrape())
