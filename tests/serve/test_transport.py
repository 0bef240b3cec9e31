"""Dispatch and flow control of the line server and the pipelined link,
on real loopback TCP.

A frame is served inside the transport callback: a row that answers at
once costs no task, a chunk's replies leave in one write, and a peer
that stops reading stops being read.
"""

import asyncio
import gc
import time

from repro.cluster import StorageNode, start_storage_node
from repro.cluster.coordinator import NodeDownError, NodeLink, link_rpcs
from repro.serve import lineserver
from repro.serve.lineserver import ArchiveEndpoint, start_line_server
from repro.serve.protocol import (
    BlockFetchRequest,
    BlockPutRequest,
    GetRequest,
    ObjectInfoResponse,
    PingRequest,
    encode_request,
)

from .test_link import address, recorded_writes
from .wire import read_reply


class TestDispatch:
    def test_a_put_burst_spawns_no_task_and_is_answered_in_one_write(self):
        burst = 24

        async def check():
            node = StorageNode("n0")
            server = await start_storage_node(node, port=0)
            reader, writer = await asyncio.open_connection(*address(server))
            # One round trip first: accepting the connection is a task.
            writer.write(encode_request(PingRequest(), request_id=99))
            assert (await read_reply(reader))["kind"] == "pong"
            loop = asyncio.get_running_loop()
            created = []

            def counting(loop, coro, **kwargs):
                created.append(coro)
                return asyncio.Task(coro, loop=loop, **kwargs)

            loop.set_task_factory(counting)
            try:
                with recorded_writes() as writes:
                    writer.write(
                        b"".join(
                            encode_request(
                                BlockPutRequest.of({f"k{i}": bytes(768)}),
                                request_id=i,
                            )
                            for i in range(burst)
                        )
                    )
                    replies = [await read_reply(reader) for _ in range(burst)]
            finally:
                loop.set_task_factory(None)
            assert [r.get("id", 0) for r in replies] == list(range(burst))
            # A put's ack has no body: nothing is JSON-encoded.
            assert all(r["kind"] == "ack" and "info" not in r for r in replies)
            assert created == []
            answers = [w for w in writes if w is not writer.transport]
            assert len(answers) == 1
            writer.close()
            server.close()
            await server.wait_closed()

        asyncio.run(check())

    def test_ping_behind_a_slow_async_row_is_answered_first(self):
        class SlowArchive:
            async def get(self, name, *, want_payload=False, deadline=None):
                await asyncio.sleep(0.3)
                return ObjectInfoResponse(name=name, size=0, sha256="")

        async def check():
            endpoint = ArchiveEndpoint(SlowArchive(), "frontend")
            server = await start_line_server(endpoint, port=0)
            reader, writer = await asyncio.open_connection(*address(server))
            writer.write(
                encode_request(GetRequest(name="x"), request_id=1)
                + encode_request(PingRequest(), request_id=2)
            )
            first = await asyncio.wait_for(read_reply(reader), 0.25)
            assert (first["id"], first["kind"]) == (2, "pong")
            second = await asyncio.wait_for(read_reply(reader), 5)
            assert (second["id"], second["name"]) == (1, "x")
            writer.close()
            server.close()
            await server.wait_closed()

        asyncio.run(check())

    def test_a_node_closed_before_its_server_task_ran_logs_nothing(self):
        """A server closed in the coroutine that started it fails its
        ``serve_forever`` task ("server is closed") before the task
        first runs; nothing retrieved that error, so the loop logged
        "Task exception was never retrieved" once the task was freed."""
        seen = []

        async def check():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda _, context: seen.append(context["message"])
            )
            server = await start_storage_node(StorageNode("n0"), port=0)
            server.close()
            await server.wait_closed()
            for _ in range(3):
                await asyncio.sleep(0)
            gc.collect()

        asyncio.run(check())
        assert seen == []


class TestBackpressure:
    def test_a_peer_that_never_reads_is_read_no_further(self, monkeypatch):
        """Past the high-water mark the server stops reading: its write
        buffer stays within a chunk's replies of the mark, and every
        request is answered once the peer reads."""
        block, per_write, writes = 64 * 1024, 4, 100
        peers = []
        made = lineserver._Connection.connection_made

        def recording(self, transport):
            peers.append(self)
            made(self, transport)

        monkeypatch.setattr(lineserver._Connection, "connection_made", recording)

        async def check():
            node = StorageNode("n0")
            node.store.put("k", bytes(block))
            server = await start_storage_node(node, port=0)
            reader, writer = await asyncio.open_connection(*address(server))
            fetches = encode_request(
                BlockFetchRequest(keys=("k",)), request_id=1
            ) * per_write
            for _ in range(writes):
                writer.write(fetches)
                await asyncio.sleep(0.002)
            await asyncio.sleep(0.3)
            served = node.stats()["gets"]
            await asyncio.sleep(0.2)
            (peer,) = peers
            assert node.stats()["gets"] == served < per_write * writes
            assert not peer.transport.is_reading()
            _, high = peer.transport.get_write_buffer_limits()
            # A chunk's replies go out together, so the buffer may pass
            # the mark by a chunk's worth (4 replies, or a few writes
            # coalesced on a busy host), however many requests wait.
            assert peer.transport.get_write_buffer_size() < high + 16 * block
            replies = [
                await asyncio.wait_for(read_reply(reader), 10)
                for _ in range(per_write * writes)
            ]
            assert all(r["blocks"].sizes == (block,) for r in replies)
            assert node.stats()["gets"] == per_write * writes
            writer.close()
            server.close()
            await server.wait_closed()

        asyncio.run(check())

    def test_a_burst_to_a_peer_that_stops_reading_waits_then_drops(self):
        """The burst waits for the buffer to drain with the link lock
        held, until the RPC deadline drops the connection."""
        timeout, burst = 0.5, 24
        held = []

        async def never_reads(reader, writer):
            held.append(writer)

        async def check():
            server = await asyncio.start_server(never_reads, "127.0.0.1", 0)
            link = NodeLink("n", *address(server))
            requests = [
                BlockPutRequest.of({f"k{i}": bytes(1 << 20)})
                for i in range(burst)
            ]
            t0 = time.perf_counter()
            sending = asyncio.create_task(
                link_rpcs([(link, requests)], retry=None, timeout=timeout)
            )
            await asyncio.sleep(timeout / 2)
            assert link._lock.locked()  # still writing
            (outcomes,) = await sending
            assert timeout <= time.perf_counter() - t0 < timeout + 2
            assert all(isinstance(o, NodeDownError) for o in outcomes)
            assert all("RPC deadline" in str(o) for o in outcomes)
            assert link._connection is None and link.alive is False
            assert not link._lock.locked()
            for writer in held:
                writer.close()
            server.close()
            await server.wait_closed()

        asyncio.run(check())
