"""Gateway end-to-end in-process: the priced read ladder and repair.

Two real (in-process) cluster sites under one ``FederationGateway``:
puts replicate to both, reads walk local → remote → coupled with WAN
bytes metered per rung, and repair re-injects a wiped object across
the WAN.  The multi-process variants (blackout via SIGKILL, WAL
recovery) live in ``repro sites loadgen`` and CI's federation-smoke.
"""

import asyncio
import hashlib

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator, StorageNode, start_storage_node
from repro.cluster.coordinator import start_coordinator
from repro.storage.archive import DataLossError
from repro.graphs import tornado_catalog_graph
from repro.serve.protocol import BlockDeleteRequest, BlockListRequest
from repro.sites import (
    FederationGateway,
    FederationManifest,
    PairingRecord,
    SiteAssignment,
    find_coupled_witness,
)
from repro.storage.blockstore import parse_block_key

GRAPH_NUMBERS = {"site-a": 2, "site-b": 3}


def handbuilt_manifest():
    return FederationManifest(
        sites=tuple(
            SiteAssignment(sid, number)
            for sid, number in GRAPH_NUMBERS.items()
        ),
        site_max_size=6,
        pairings=(PairingRecord("site-a", "site-b", None, 13),),
    )


class Federation:
    """Two in-process sites plus the gateway fronting them."""

    def __init__(self, gateway, coordinators, servers):
        self.gateway = gateway
        self.coordinators = coordinators
        self.servers = servers  # site -> [coordinator server, node servers...]

    @classmethod
    async def start(cls, block_size=64, nodes_per_site=3):
        gateway = FederationGateway(
            handbuilt_manifest(), block_size=block_size
        )
        coordinators, servers = {}, {}
        for sid, number in GRAPH_NUMBERS.items():
            coordinator = ClusterCoordinator(
                tornado_catalog_graph(number), block_size=block_size
            )
            server = await start_coordinator(coordinator, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            servers[sid] = [server]
            for i in range(nodes_per_site):
                node_id = f"{sid}-n{i}"
                node_server = await start_storage_node(
                    StorageNode(node_id, seed=i), port=0
                )
                nhost, nport = node_server.sockets[0].getsockname()[:2]
                await coordinator.register(node_id, nhost, nport)
                servers[sid].append(node_server)
            gateway.attach_site(sid, host, port)
            coordinators[sid] = coordinator
        return cls(gateway, coordinators, servers)

    async def kill_site(self, site_id):
        """SIGKILL analogue: every server gone, pooled link dropped."""
        for server in self.servers[site_id]:
            server.close()
            await server.wait_closed()
        self.gateway.links[site_id].reset()

    async def erase_witness(self, site_id, name, erased):
        """Delete ``name``'s blocks on the witness graph-node set."""
        coordinator = self.coordinators[site_id]
        for link in coordinator.nodes.values():
            keys = await coordinator._rpc(
                link, BlockListRequest(prefix=f"{name}/")
            )
            for key in keys.keys:
                _, _, node = parse_block_key(key)
                if node in erased:
                    await coordinator._rpc(
                        link, BlockDeleteRequest(key=key)
                    )

    async def close(self):
        for server_list in self.servers.values():
            for server in server_list:
                server.close()


def run(coro):
    return asyncio.run(coro)


def payload_bytes(n, seed=0):
    return np.random.default_rng(seed).bytes(n)


class TestPutAndLocalRead:
    def test_put_replicates_to_every_site_and_reads_stay_local(self):
        async def check():
            fed = await Federation.start()
            gw = fed.gateway
            payload = payload_bytes(5000)
            info = await gw.put("obj", payload)
            assert sorted(info["sites"]) == ["site-a", "site-b"]
            assert info["home"] == gw.home_site("obj")
            # The non-home copy is steady-state replication, not WAN
            # anomaly traffic.
            assert gw.replicate_bytes == len(payload)
            assert gw.wan_bytes == 0

            got = await gw.get("obj", want_payload=True)
            assert got.payload == payload
            assert gw.reads["local"] == 1
            assert gw.wan_bytes == 0
            await fed.close()

        run(check())

    def test_both_sites_hold_a_decodable_copy(self):
        async def check():
            fed = await Federation.start()
            payload = payload_bytes(5000)
            await fed.gateway.put("obj", payload)
            for coordinator in fed.coordinators.values():
                got = await coordinator.get("obj", want_payload=True)
                assert got.payload == payload
            await fed.close()

        run(check())


class TestReadLadder:
    def test_dark_home_site_fails_over_to_remote_with_metered_wan(self):
        async def check():
            fed = await Federation.start()
            gw = fed.gateway
            payload = payload_bytes(5000)
            await gw.put("obj", payload)
            home = gw.home_site("obj")
            await fed.kill_site(home)

            got = await gw.get("obj", want_payload=True)
            assert got.payload == payload
            assert gw.reads["remote"] == 1
            assert gw.read_wan_bytes == len(payload)
            assert gw.wan_bytes_by_site != {}
            await fed.close()

        run(check())

    def test_coupled_decode_serves_what_neither_site_can(self):
        async def check():
            fed = await Federation.start()
            gw = fed.gateway
            payload = payload_bytes(5000)
            await gw.put("obj", payload)

            witness = find_coupled_witness(
                tornado_catalog_graph(GRAPH_NUMBERS["site-a"]),
                tornado_catalog_graph(GRAPH_NUMBERS["site-b"]),
                seed=1,
            )
            assert witness is not None
            for sid, erased in zip(GRAPH_NUMBERS, witness):
                await fed.erase_witness(sid, "obj", erased)

            # Neither site decodes alone...
            for coordinator in fed.coordinators.values():
                with pytest.raises(DataLossError):
                    await coordinator.get("obj")
            # ...but the federation still serves the read, over the WAN.
            got = await gw.get("obj", want_payload=True)
            assert got.payload == payload
            assert got.sha256 == hashlib.sha256(payload).hexdigest()
            assert gw.reads["coupled"] == 1
            assert gw.read_wan_bytes > 0
            await fed.close()

        run(check())


class TestRepair:
    def test_repair_reinjects_the_witness_damage_over_the_wan(self):
        async def check():
            fed = await Federation.start()
            gw = fed.gateway
            payload = payload_bytes(5000)
            await gw.put("obj", payload)
            witness = find_coupled_witness(
                tornado_catalog_graph(GRAPH_NUMBERS["site-a"]),
                tornado_catalog_graph(GRAPH_NUMBERS["site-b"]),
                seed=1,
            )
            assert witness is not None
            for sid, erased in zip(GRAPH_NUMBERS, witness):
                await fed.erase_witness(sid, "obj", erased)

            summary = await gw.repair("drain")
            assert summary["reinjected"], summary
            assert gw.repair_wan_bytes > 0
            # Repair restored single-site decodability everywhere.
            for coordinator in fed.coordinators.values():
                got = await coordinator.get("obj", want_payload=True)
                assert got.payload == payload
            await fed.close()

        run(check())


class TestStatus:
    def test_status_reports_sites_wan_and_the_floor(self):
        async def check():
            fed = await Federation.start()
            gw = fed.gateway
            await gw.put("obj", payload_bytes(5000))
            status = await gw.status()
            assert set(status["sites"]) == set(GRAPH_NUMBERS)
            for sid, entry in status["sites"].items():
                assert entry["alive"] is True
                assert entry["graph"] == GRAPH_NUMBERS[sid]
            assert status["objects"] == 1
            assert status["first_failure_floor"] == 13
            assert status["wan"]["total_bytes"] == 0
            assert status["wan"]["replicate_bytes"] == 5000
            await fed.close()

        run(check())
