"""Half-open and partitioned connections: deadlines, not hangs.

The failure modes that actually page people are not clean refusals —
they are peers that accept TCP and then go dark, die mid-frame, or
feed garbage down a pipelined connection.  These tests pin the
contract for each: the blocking clients surface
:class:`DeadlineExceededError` / :class:`ConnectionError`, the
coordinator surfaces :class:`NodeDownError` after its RPC deadline and
retry policy, and the line server answers garbage with a structured
error frame while keeping the connection up.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator, StorageNode, start_storage_node
from repro.cluster.coordinator import NodeDownError, NodeLink
from repro.graphs import tornado_catalog_graph
from repro.resilience import RetryPolicy
from repro.serve.client import ClusterClient, ProtocolClient
from repro.serve.errors import DeadlineExceededError, NodeUnreachableError
from repro.serve.lineserver import start_line_server
from repro.serve.protocol import (
    PingRequest,
    PongResponse,
    encode_frame,
    encode_request,
    frame_id,
)

from . import wire
from .test_link import rpc
from .wire import read_frame


def run(coro):
    return asyncio.run(coro)


async def silent_server():
    """Accepts connections, reads forever, never answers."""

    async def handle(reader, writer):
        try:
            while await reader.read(4096):
                pass
        finally:
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


async def midframe_server():
    """Answers every request with half a frame, then hangs up."""

    async def handle(reader, writer):
        await read_frame(reader)
        writer.write(encode_frame(PongResponse(), request_id=1)[:-1])
        await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def port_of(server):
    return server.sockets[0].getsockname()[1]


class TestBlockingClient:
    def test_accepted_but_never_answered_raises_deadline(self):
        async def check():
            server = await silent_server()

            def exercise():
                client = ProtocolClient(
                    "127.0.0.1", port_of(server), timeout=0.2
                )
                t0 = time.perf_counter()
                with pytest.raises(DeadlineExceededError) as info:
                    client.ping()
                elapsed = time.perf_counter() - t0
                assert "no reply" in str(info.value)
                assert elapsed < 5.0  # a deadline, not a hang
                client.close()

            await asyncio.to_thread(exercise)
            server.close()

        run(check())

    def test_deadline_is_not_retried_even_with_a_policy(self):
        async def check():
            server = await silent_server()

            def exercise():
                client = ProtocolClient(
                    "127.0.0.1",
                    port_of(server),
                    timeout=0.2,
                    retry=RetryPolicy(max_attempts=5, base_delay=0.01),
                )
                t0 = time.perf_counter()
                with pytest.raises(DeadlineExceededError):
                    client.ping()
                # One deadline's worth of waiting, not five.
                assert time.perf_counter() - t0 < 1.0
                client.close()

            await asyncio.to_thread(exercise)
            server.close()

        run(check())

    def test_close_mid_frame_raises_connection_error(self):
        async def check():
            server = await midframe_server()

            def exercise():
                client = ProtocolClient(
                    "127.0.0.1", port_of(server), timeout=1.0
                )
                with pytest.raises(ConnectionError) as info:
                    client.ping()
                assert "mid-frame" in str(info.value)
                client.close()

            await asyncio.to_thread(exercise)
            server.close()

        run(check())


class TestLineServerMalformedFrames:
    def test_garbage_mid_pipeline_answers_error_and_stays_up(self):
        async def check():
            async def handler(request, envelope):
                assert isinstance(request, PingRequest)
                return PongResponse()

            server = await start_line_server(handler, port=0)
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            # A valid ping, then garbage, then another valid ping —
            # all pipelined on one connection.
            writer.write(encode_request(PingRequest(), request_id=1))
            writer.write(wire.frame("ping", header=b"not a header\n"))
            writer.write(wire.frame(wire.BOGUS_OP, id=2))
            writer.write(encode_request(PingRequest(), request_id=3))
            await writer.drain()
            frames = [await wire.read_reply(reader) for _ in range(4)]
            by_kind = {}
            for frame in frames:
                by_kind.setdefault(frame["kind"], []).append(frame)
            # Both pings were answered: the connection survived the
            # garbage between them.
            assert len(by_kind["pong"]) == 2
            codes = {f["code"] for f in by_kind["error"]}
            assert codes == {"bad_request", "unknown_op"}
            writer.close()
            server.close()

        run(check())


def payload_bytes(n, seed=0):
    return np.random.default_rng(seed).bytes(n)


class TestCoordinatorRpcDeadlines:
    def test_dark_node_surfaces_node_down_after_deadline(self):
        async def check():
            server = await silent_server()
            coord = ClusterCoordinator(
                tornado_catalog_graph(3),
                block_size=64,
                rpc_timeout=0.15,
                retry=None,
            )
            link = NodeLink("dark", "127.0.0.1", port_of(server))
            t0 = time.perf_counter()
            with pytest.raises(NodeDownError) as info:
                await rpc(coord, link, PingRequest())
            assert "RPC deadline" in str(info.value)
            assert time.perf_counter() - t0 < 5.0
            assert link.alive is False
            server.close()

        run(check())

    def test_node_down_is_a_node_unreachable_error(self):
        # The wire taxonomy: NodeDownError travels as ``node_down``.
        assert issubclass(NodeDownError, NodeUnreachableError)

    def test_retry_policy_survives_one_connection_blip(self):
        async def check():
            attempts = {"count": 0}

            async def handle(reader, writer):
                attempts["count"] += 1
                if attempts["count"] == 1:
                    writer.close()  # first connection dies instantly
                    return
                request_id = frame_id(await read_frame(reader))
                writer.write(encode_frame(PongResponse(), request_id=request_id))
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(
                handle, "127.0.0.1", 0
            )
            coord = ClusterCoordinator(
                tornado_catalog_graph(3),
                block_size=64,
                retry=RetryPolicy(
                    max_attempts=3, base_delay=0.01, seed=1
                ),
            )
            link = NodeLink("blippy", "127.0.0.1", port_of(server))
            response = await rpc(coord, link, PingRequest())
            assert response.pong is True
            assert attempts["count"] == 2
            assert link.alive is True
            server.close()

        run(check())

    def test_degraded_read_decodes_around_a_partitioned_node(self):
        async def check():
            coord = ClusterCoordinator(
                tornado_catalog_graph(3),
                block_size=64,
                rpc_timeout=0.15,
                retry=None,
            )
            nodes, servers = {}, {}
            for i in range(3):
                node = StorageNode(f"node-{i}", seed=i)
                server = await start_storage_node(node, port=0)
                host, port = server.sockets[0].getsockname()[:2]
                await coord.register(f"node-{i}", host, port)
                nodes[f"node-{i}"], servers[f"node-{i}"] = node, server
            payload = payload_bytes(3000, seed=1)
            await coord.put("obj", payload)
            # The partitioned node accepts TCP but never answers: the
            # read must decode around it after the RPC deadline, not
            # hang on it.
            nodes["node-1"].partitioned = True
            got = await coord.get("obj", want_payload=True)
            assert got.payload == payload
            # Heal: the node answers again after a fresh probe.
            nodes["node-1"].partitioned = False
            coord.nodes["node-1"].alive = True
            assert (await coord.probe())["node-1"] is True
            for server in servers.values():
                server.close()

        run(check())


class TestNodeFaultModes:
    def test_partitioned_node_admin_is_out_of_band(self):
        async def check():
            node = StorageNode("n0", seed=0)
            server = await start_storage_node(node, port=0)
            host, port = server.sockets[0].getsockname()[:2]

            def exercise():
                with ClusterClient(host, port, timeout=0.3) as client:
                    client.block_put("k", b"data")
                    client.node_admin("partition")
                    # Data plane parks until the deadline...
                    with pytest.raises(DeadlineExceededError):
                        client.block_get("k")
                    # ...but the admin channel still answers, and
                    # healing restores the data plane.
                    stats = client.node_admin("heal")
                    assert stats["partitioned"] is False
                    assert client.block_get("k") == b"data"

            await asyncio.to_thread(exercise)
            server.close()

        run(check())

    def test_slow_node_delays_data_plane_until_healed(self):
        async def check():
            node = StorageNode("n0", seed=0)
            server = await start_storage_node(node, port=0)
            host, port = server.sockets[0].getsockname()[:2]

            def exercise():
                with ClusterClient(host, port, timeout=5.0) as client:
                    client.block_put("k", b"data")
                    client.node_admin("slow", delay_seconds=0.2)
                    t0 = time.perf_counter()
                    assert client.block_get("k") == b"data"
                    assert time.perf_counter() - t0 >= 0.2
                    client.node_admin("heal")
                    t0 = time.perf_counter()
                    assert client.block_get("k") == b"data"
                    assert time.perf_counter() - t0 < 0.2

            await asyncio.to_thread(exercise)
            server.close()

        run(check())

    def test_partition_blocks_pings_hence_liveness_probes(self):
        async def check():
            node = StorageNode("n0", seed=0)
            server = await start_storage_node(node, port=0)
            host, port = server.sockets[0].getsockname()[:2]
            coord = ClusterCoordinator(
                tornado_catalog_graph(3),
                block_size=64,
                rpc_timeout=0.15,
                retry=None,
            )
            await coord.register("n0", host, port)
            node.partitioned = True
            assert (await coord.probe())["n0"] is False
            node.partitioned = False
            coord.nodes["n0"].alive = True
            assert (await coord.probe())["n0"] is True
            server.close()

        run(check())
