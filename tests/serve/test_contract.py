"""The archive-service contract, once, against every tier that serves it.

A coordinator and a two-site federation gateway answer the same op
family (``put`` / ``get`` / ``status`` / ``repair`` / ``metrics.snapshot``
/ ``metrics`` / ``ping``) from the same dispatch table
(:class:`repro.serve.lineserver.ArchiveEndpoint`), so one script drives
both through :class:`repro.serve.client.ArchiveClient` and only the
expected numbers differ by tier.
"""

import asyncio
import hashlib

import pytest

from repro.cluster import ClusterCoordinator, StorageNode
from repro.cluster.coordinator import COORDINATOR_ROWS, start_coordinator
from repro.cluster.node import NODE_ROWS
from repro.obs.prom import render_prometheus
from repro.serve import protocol as proto
from repro.serve.client import ArchiveClient
from repro.serve.errors import DeadlineExceededError
from repro.serve.lineserver import SHARED_ROWS
from repro.serve.protocol import (
    BlockListRequest,
    ProtocolError,
    RemoteError,
)
from repro.sites import FederationGateway, start_gateway
from tests.cluster.test_cluster import Cluster, payload_bytes
from tests.serve.wire import BOGUS_OP, frame, recv_reply
from tests.sites.test_gateway import Federation

# What differs by tier: who the members are and what the scrape says
# after exactly one 5000-byte put.
TIERS = {
    "coordinator": {
        "members": ("nodes", {"node-0", "node-1", "node-2"}),
        "gauges": {"cluster.objects": 1.0, "cluster.members": 3.0},
        "counters": {"cluster.repair.bytes": 0},
        "prom": "repro_cluster_objects 1",
    },
    "gateway": {
        "members": ("sites", {"site-a", "site-b"}),
        "gauges": {
            "sites.objects": 1.0,
            "sites.members": 2.0,
            "sites.first_failure_floor": 13.0,
        },
        "counters": {"sites.wan.bytes": 0},
        "prom": "repro_sites_objects 1",
    },
}


async def serve_tier(tier):
    """Start ``tier`` in-process; returns ``(server, close)``."""
    if tier == "coordinator":
        backing = await Cluster.start(members=3)
        server = await start_coordinator(backing.coordinator, port=0)
    else:
        backing = await Federation.start()
        server = await start_gateway(backing.gateway, port=0)

    async def close():
        server.close()
        await backing.close()

    return server, close


def on_live_tier(tier, script):
    """Run the blocking ``script(host, port)`` against a served tier."""

    async def main():
        server, close = await serve_tier(tier)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            await asyncio.to_thread(script, host, port)
        finally:
            await close()

    asyncio.run(main())


@pytest.mark.parametrize("tier", sorted(TIERS))
class TestArchiveContract:
    def test_object_plane_scrape_and_refusals(self, tier):
        expect = TIERS[tier]
        payload = payload_bytes(5000, seed=6)
        digest = hashlib.sha256(payload).hexdigest()

        def script(host, port):
            with ArchiveClient(host, port) as client:
                assert client.ping() is True
                # put -> get, with and without the bytes
                acked = client.put("obj", payload)
                assert acked["sha256"] == digest
                got = client.get("obj", want_payload=True)
                assert (got.name, got.size) == ("obj", 5000)
                assert got.sha256 == digest
                assert got.payload == payload
                assert client.get("obj").payload is None
                with pytest.raises(KeyError):
                    client.get("no-such-object")
                # status names every member, all alive
                key, members = expect["members"]
                status = client.status()
                assert set(status[key]) == members
                assert all(e["alive"] for e in status[key].values())
                assert status["objects"] == 1
                # a scan moves no byte: the object reads back the same
                assert isinstance(client.repair("scan"), dict)
                assert client.get("obj").sha256 == digest
                with pytest.raises(ProtocolError):  # the one mode check
                    client.repair("sideways")
                # scrape: structured, labelled by tier ...
                snap = client.metrics_snapshot()
                assert snap.role == snap.source == tier
                for name, value in expect["gauges"].items():
                    assert snap.snapshot["gauges"][name] == value, name
                for name, floor in expect["counters"].items():
                    assert snap.snapshot["counters"][name] >= floor
                # ... and the text op is the same snapshot, rendered
                text = client.metrics()
                assert text == render_prometheus(
                    client.metrics_snapshot().snapshot
                )
                assert expect["prom"] in text
                # an op of another tier is refused by name, not dropped
                with pytest.raises(RemoteError) as refused:
                    client.call(BlockListRequest())
                assert refused.value.code == "unknown_op"
                assert f"the {tier}" in str(refused.value)
                with pytest.raises(RemoteError) as refused:
                    client.stats()
                assert refused.value.code == "unknown_op"
                assert client.ping() is True

        on_live_tier(tier, script)

    def test_get_deadline_is_enforced_and_leaves_no_residue(self, tier):
        payload = payload_bytes(5000, seed=7)

        def script(host, port):
            with ArchiveClient(host, port) as client:
                client.put("obj", payload)
                # No network read finishes in a nanosecond.
                with pytest.raises(DeadlineExceededError):
                    client.get("obj", deadline=1e-9)
                # The abandoned read released whatever it held.
                got = client.get("obj", want_payload=True, deadline=30.0)
                assert got.payload == payload

        on_live_tier(tier, script)

    def test_v2_frame_is_refused_by_version_not_by_op(self, tier):
        def script(host, port):
            import socket

            current = proto.PROTOCOL_VERSION
            with socket.create_connection((host, port), timeout=10) as sock:
                reader = sock.makefile("rb")
                sock.sendall(
                    frame("get", "I??d", 3, False, False, 0.0, header=b"obj",
                          v=2, id=4)
                    + frame(BOGUS_OP, id=5)
                    + frame("ping", id=6)
                )
                replies = {}
                for _ in range(3):
                    reply = recv_reply(reader)
                    replies[reply["id"]] = reply
            assert replies[4]["code"] == "unsupported_version"
            assert replies[5]["code"] == "unknown_op"
            assert replies[6]["kind"] == "pong"
            assert {r["v"] for r in replies.values()} == {current}

        on_live_tier(tier, script)


def test_every_request_type_is_served_by_some_tier():
    tiers = (ClusterCoordinator, FederationGateway, StorageNode)
    served = set(COORDINATOR_ROWS) | set(NODE_ROWS)
    for cls, (method, _) in SHARED_ROWS.items():
        if method is None or any(hasattr(t, method) for t in tiers):
            served.add(cls)
    assert served == set(proto._REQUEST_TYPES.values())
    # ... and no tier's own table shadows a shared row.
    assert not (set(COORDINATOR_ROWS) | set(NODE_ROWS)) & set(SHARED_ROWS)
