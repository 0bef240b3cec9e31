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
from repro.cluster.coordinator import link_rpc, start_coordinator
from repro.core.codec import BlockRun
from repro.storage.archive import DataLossError
from repro.graphs import tornado_catalog_graph
from repro.serve.lineserver import start_line_server
from repro.serve.protocol import (
    AckResponse,
    BlockDeleteRequest,
    BlockListRequest,
    FetchStripeRequest,
    ProtocolError,
    PutRequest,
    StripeBlocksResponse,
)
from repro.sites import (
    FederationGateway,
    FederationManifest,
    PairingRecord,
    SiteAssignment,
    find_coupled_witness,
)
from repro.storage.blockstore import parse_block_key
from repro.storage.device import TransientUnavailableError

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

    async def stage_witness(self, name):
        """Erase a seeded loss neither site decodes alone (both do
        jointly) from ``name``'s blocks."""
        witness = find_coupled_witness(
            *(tornado_catalog_graph(n) for n in GRAPH_NUMBERS.values()),
            seed=1,
        )
        assert witness is not None
        for sid, erased in zip(GRAPH_NUMBERS, witness):
            await self.erase_witness(sid, name, erased)

    async def erase_witness(self, site_id, name, erased):
        """Delete ``name``'s blocks on the witness graph-node set."""
        coordinator = self.coordinators[site_id]
        for link in coordinator.nodes.values():
            keys = await link_rpc(
                link, BlockListRequest(prefix=f"{name}/"), retry=coordinator.retry,
                timeout=coordinator.rpc_timeout,
            )
            doomed = tuple(
                key for key in keys.keys if parse_block_key(key)[2] in erased
            )
            await link_rpc(
                link, BlockDeleteRequest(keys=doomed), retry=coordinator.retry,
                timeout=coordinator.rpc_timeout,
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
            payload = payload_bytes(10_000)  # four 48 x 64 B stripes
            await gw.put("obj", payload)
            await fed.stage_witness("obj")

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
            # One schedule over the stacked graph, replayed per stripe.
            stats = gw.plans.stats()
            assert (stats["misses"], stats["hits"]) == (1, 3)
            await fed.close()

        run(check())

    def test_coupled_decode_with_a_site_dark_is_transient(self):
        async def check():
            fed = await Federation.start()
            gw = fed.gateway
            await gw.put("obj", payload_bytes(5000))
            await fed.stage_witness("obj")
            await fed.kill_site("site-b")
            # site-a cannot peel its witness half alone, but site-b's
            # 96 nodes are dark, not lost: retry, don't declare loss.
            with pytest.raises(TransientUnavailableError):
                await gw.get("obj", want_payload=True)
            assert gw.reads["failed"] == 1
            await fed.close()

        run(check())

    def test_fatal_pattern_names_the_lost_data_blocks(self):
        async def check():
            fed = await Federation.start()
            gw = fed.gateway
            await gw.put("obj", payload_bytes(5000))
            erased = set(range(60))  # every data block, at both sites
            for sid in GRAPH_NUMBERS:
                await fed.erase_witness(sid, "obj", erased)
            missing = sorted(erased) + [96 + x for x in sorted(erased)]
            verdict = gw.system.decode(missing)
            assert not verdict.success
            with pytest.raises(DataLossError) as caught:
                await gw.get("obj", want_payload=True)
            assert caught.value.stripe_index == 0
            assert caught.value.residual == verdict.residual & set(
                gw.system.data_nodes
            )
            await fed.close()

        run(check())

    def test_a_site_that_never_held_the_object_is_loss_not_an_outage(self):
        async def check():
            fed = await Federation.start()
            gw = fed.gateway
            await gw.put("obj", payload_bytes(5000))
            # site-b was wiped and came back empty: it is up, answers
            # not_found, and will never produce a block of "obj".
            fed.coordinators["site-b"].manifests.clear()
            # site-a is damaged past what it decodes (alone is all the
            # coupled graph has left).
            await fed.erase_witness("site-a", "obj", set(range(60)))
            with pytest.raises(DataLossError) as caught:
                await gw.get("obj", want_payload=True)
            verdict = gw.system.decode(
                list(range(60)) + list(range(96, 192))
            )
            assert caught.value.residual == verdict.residual & set(
                gw.system.data_nodes
            )
            assert gw.reads["failed"] == 1
            # Every site up and none holds a block: loss, too.
            fed.coordinators["site-a"].manifests.clear()
            with pytest.raises(DataLossError):
                await gw.get("obj", want_payload=True)
            await fed.close()

        run(check())


def stub_site(fetch_stripe):
    """A site that acks puts, cannot decode alone, and answers
    ``cluster.fetch_stripe`` with ``await fetch_stripe(request)``."""

    async def handler(request, envelope):
        if isinstance(request, PutRequest):
            return AckResponse(info={})
        if isinstance(request, FetchStripeRequest):
            return await fetch_stripe(request)
        raise DataLossError(request.name, 0, frozenset({0}))

    return handler


async def stub_gateway(fetch_stripe, manifest=None, **options):
    """A gateway whose every site is one :func:`stub_site`."""
    server = await start_line_server(stub_site(fetch_stripe), port=0)
    host, port = server.sockets[0].getsockname()[:2]
    gw = FederationGateway(
        manifest or handbuilt_manifest(), block_size=64, **options
    )
    for sid in gw.manifest.site_ids:
        gw.attach_site(sid, host, port)
    await gw.put("obj", bytes(100))
    return gw, server


class TestCoupledRungValidatesSiteInput:
    """A site's ``fetch_stripe`` reply is outside input: the coupled
    rung rejects what it cannot place instead of decoding garbage."""

    @pytest.mark.parametrize(
        "nodes, shipped",
        [
            ((0, 96), BlockRun.of([bytes(64)] * 2)),
            ((0, 3), BlockRun.of([bytes(64), b"x"])),
            ((0,), BlockRun.of([bytes(64)] * 2)),
            ((0, 3), BlockRun((64, 65), bytes(128))),
        ],
        ids=["past-the-site", "short-block", "a-block-too-many", "sizes-past-the-run"],
    )
    def test_malformed_stripe_reply_is_a_protocol_error(self, nodes, shipped):
        async def fetch_stripe(request):
            return StripeBlocksResponse(
                name=request.name,
                seq=request.seq,
                payload_length=100,
                nodes=nodes,
                blocks=shipped,
            )

        async def check():
            gw, server = await stub_gateway(fetch_stripe)
            with pytest.raises(ProtocolError, match="site 'site-"):
                await gw.get("obj", want_payload=True)
            server.close()

        run(check())


class TestCoupledFanOut:
    def test_every_site_fetch_is_in_flight_at_once(self):
        """Each site holds its reply until all three sites' fetches have
        arrived.  A read that asked one site after another would get no
        reply from the first two before their deadlines, and read them
        as dark sites; the deadline only bounds that failure."""
        three = FederationManifest(
            sites=tuple(
                SiteAssignment(sid, number)
                for sid, number in (("site-a", 2), ("site-b", 3), ("site-c", 1))
            ),
            site_max_size=6,
            pairings=(PairingRecord("site-a", "site-b", None, 13),),
        )
        arrived, everyone = [], asyncio.Event()

        async def fetch_stripe(request):
            arrived.append(request.seq)
            if len(arrived) == 3:
                everyone.set()
            await everyone.wait()
            return StripeBlocksResponse(name=request.name, seq=request.seq)

        async def check():
            gw, server = await stub_gateway(
                fetch_stripe, three, retry=None, rpc_timeout=5.0
            )
            # No site ships a block, and none is dark: the coupled
            # decode is stuck, and typed as loss.
            with pytest.raises(DataLossError):
                await gw.get("obj", want_payload=True)
            assert all(link.alive for link in gw.links.values())
            server.close()

        run(check())
        assert arrived == [0, 0, 0]


class TestRepair:
    def test_repair_reinjects_the_witness_damage_over_the_wan(self):
        async def check():
            fed = await Federation.start()
            gw = fed.gateway
            payload = payload_bytes(5000)
            await gw.put("obj", payload)
            await fed.stage_witness("obj")

            summary = await gw.repair("drain")
            assert summary["reinjected"], summary
            # The coupled read that re-derives the object is repair
            # traffic: the read ledger must not move.  Total: 2 stripes
            # x 51 surviving site-b blocks x 64 B coupled, then 5000 B
            # shipped to site-a, 5000 B fetched back from it and
            # 5000 B shipped to site-b.
            assert gw.read_wan_bytes == 0
            assert gw.repair_wan_bytes == gw.wan_bytes == 6528 + 15_000
            # Repair restored single-site decodability everywhere.
            for coordinator in fed.coordinators.values():
                got = await coordinator.get("obj", want_payload=True)
                assert got.payload == payload
            await fed.close()

        run(check())


class TestRpcTimeoutValidation:
    @pytest.mark.parametrize(
        "timeout, error", [(True, TypeError), (float("nan"), ValueError)]
    )
    def test_gateway_refuses_a_bool_or_nan_rpc_timeout(self, timeout, error):
        with pytest.raises(error, match="rpc_timeout"):
            FederationGateway(handbuilt_manifest(), rpc_timeout=timeout)


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
