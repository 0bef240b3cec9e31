"""Frames past asyncio's default 64 KiB line limit.

The two reproducers from ``perf/README.md`` § "Wire ceilings", as
regression tests: with base64 payloads on one JSON line, a 48 KiB
object killed the client's connection without a typed error, and a
``block.list`` reply of ~4 800 keys failed ``repair()``/``leave()``.
Payloads now travel raw behind the header line, and every stream is
opened with the protocol's own line limit.
"""

import hashlib

import numpy as np
import pytest

from repro.cluster import (
    ClusterCoordinator,
    StorageNode,
    start_coordinator,
    start_storage_node,
)
from repro.graphs import tornado_catalog_graph
from repro.serve.client import ClusterClient
from repro.storage.blockstore import block_key

from ..serve.test_client import LoopThread


class LiveCluster:
    """Coordinator + 4 nodes on a loop thread, driven by blocking clients."""

    def __init__(self, block_size):
        self.loop_thread = LoopThread()
        self.run = self.loop_thread.run
        self.coordinator = ClusterCoordinator(
            tornado_catalog_graph(3), block_size=block_size
        )
        self.servers = []
        self.client = ClusterClient(
            *self.run(self._serve(start_coordinator, self.coordinator))
        )
        self.node_clients = {}
        for i in range(4):
            node = StorageNode(f"node-{i}", seed=i)
            host, port = self.run(self._serve(start_storage_node, node))
            self.client.join(node.node_id, host, port)
            self.node_clients[node.node_id] = ClusterClient(host, port)

    async def _serve(self, start, target):
        self.servers.append(await start(target))
        return self.servers[-1].sockets[0].getsockname()[:2]

    async def _shutdown(self):
        for link in self.coordinator.nodes.values():
            link.reset()
        for server in self.servers:
            server.close()

    def close(self):
        for client in (self.client, *self.node_clients.values()):
            client.close()
        self.run(self._shutdown())
        self.loop_thread.stop()  # waits for the connection handlers


@pytest.fixture
def live_cluster():
    clusters = []

    def start(block_size):
        clusters.append(LiveCluster(block_size))
        return clusters[-1]

    yield start
    for cluster in clusters:
        cluster.close()


@pytest.mark.parametrize(
    "size",
    [49_100, 49_152, 65_536, 3 * 2**20 + 17],
    ids=["under-48KiB", "48KiB", "64KiB", "3MiB"],
)
def test_object_round_trip_past_the_old_line_limit(live_cluster, size):
    cluster = live_cluster(block_size=4096 if size > 2**20 else 1024)
    payload = np.random.default_rng(size).bytes(size)
    info = cluster.client.put("obj", payload)
    assert info["failed_blocks"] == 0 and info["size"] == size
    got = cluster.client.get("obj", want_payload=True)
    assert got.payload == payload
    assert got.sha256 == hashlib.sha256(payload).hexdigest()
    # Still one connection: nothing was dropped and reconnected.
    assert cluster.client.ping() is True


def test_repair_and_leave_with_five_thousand_keys_per_node(live_cluster):
    cluster = live_cluster(block_size=16)
    client = cluster.client
    stripes = 212  # x 96 blocks / 4 nodes = 5 088 keys per node
    payload = np.random.default_rng(5).bytes(stripes * 48 * 16)
    assert client.put("k0000", payload)["failed_blocks"] == 0
    per_node = {
        nid: len(c.block_list()) for nid, c in cluster.node_clients.items()
    }
    assert min(per_node.values()) >= 5000, per_node
    # The inventory reply alone is past the old 64 KiB line.
    listing = cluster.node_clients["node-0"].block_list()
    assert sum(len(key) + 3 for key in listing) > 64 * 1024

    # Scattered loss -> repair() inventories every node and rebuilds.
    manifest = cluster.coordinator.manifests["k0000"]
    lost = 0
    for record in manifest.stripes[::40]:
        for node in (3, 50):
            owner = cluster.node_clients[record.placement[node]]
            assert owner.block_delete(block_key("k0000", record.index, node))
            lost += 1
    summary = client.repair()
    assert summary["rebuilt_blocks"] == lost
    assert summary["unrepairable_blocks"] == 0

    # leave(): rebuild a quarter of every stripe, re-shard the rest.
    summary = client.leave("node-1")
    assert summary["unrepairable_blocks"] == 0
    assert summary["rebuilt_blocks"] + summary["moved_blocks"] > 5000
    assert client.get("k0000", want_payload=True).payload == payload
