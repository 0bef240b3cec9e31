"""The pipelined RPC link, on real loopback TCP.

Everything here goes through ``ClusterCoordinator._rpc`` /
``_rpc_many`` (or a whole ``put``) and a ``NodeLink``, so the link is exercised with the typed
encode/parse its callers wrap around it.
"""

import asyncio
import gc
import json
import sys
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator, StorageNode, start_storage_node
import repro.cluster.coordinator as coordinator_mod
from repro.cluster.coordinator import (
    NodeDownError,
    NodeLink,
    link_rpc,
    link_rpc_many,
)
from repro.graphs import tornado_catalog_graph
from repro.obs.registry import capture
from repro.resilience import RetryPolicy
from repro.serve.lineserver import start_line_server
from repro.serve.protocol import (
    BlockFetchRequest,
    BlockMapResponse,
    BlockPutRequest,
    NodeAdminRequest,
    PingRequest,
    PongResponse,
    encode_frame,
    encode_request,
    payload_size,
)


def coordinator(**kwargs):
    kwargs.setdefault("retry", None)
    return ClusterCoordinator(
        tornado_catalog_graph(3), block_size=64, **kwargs
    )


def address(server):
    return server.sockets[0].getsockname()[:2]


async def read_frame(reader):
    """One request frame off a raw server-side stream, or None at EOF."""
    line = await reader.readline()
    if not line:
        return None
    await reader.readexactly(payload_size(line))
    return json.loads(line)


@contextmanager
def no_leak_warnings():
    """Fail on any ResourceWarning or unraisable exception inside."""
    unraisable = []
    previous = sys.unraisablehook
    sys.unraisablehook = unraisable.append
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield
            gc.collect()
    finally:
        sys.unraisablehook = previous
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, [str(w.message) for w in leaks]
    assert not unraisable, [repr(u.exc_value) for u in unraisable]


class TestPipelining:
    def test_replies_out_of_order_resolve_the_right_callers(self):
        """A peer that answers a burst of requests in reverse order."""
        burst = 8

        async def handle(reader, writer):
            frames = [await read_frame(reader) for _ in range(burst)]
            for frame in reversed(frames):
                (key,) = frame["keys"]
                writer.write(
                    encode_frame(
                        BlockMapResponse(blocks={key: key.encode()}).to_frame(
                            request_id=frame["id"]
                        )
                    )
                )
            try:
                await writer.drain()
                await reader.read()  # stay up until the peer leaves
            finally:
                writer.close()

        async def check():
            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            coord = coordinator()
            link = NodeLink("n", *address(server))
            replies = await asyncio.gather(
                *(
                    coord._rpc(link, BlockFetchRequest(keys=(f"key-{i}",)))
                    for i in range(burst)
                )
            )
            # Every caller got the reply to *its* request, payload included.
            assert [r.blocks for r in replies] == [
                {f"key-{i}": f"key-{i}".encode()} for i in range(burst)
            ]
            link.reset()
            server.close()
            await server.wait_closed()

        asyncio.run(check())

    def test_ping_behind_a_slow_fetch_returns_first(self):
        async def handler(request, envelope):
            if isinstance(request, BlockFetchRequest):
                await asyncio.sleep(0.3)
                return BlockMapResponse(blocks={})
            return PongResponse()

        async def check():
            server = await start_line_server(handler, port=0)
            coord = coordinator()
            link = NodeLink("n", *address(server))
            finished = []

            async def call(request):
                await coord._rpc(link, request)
                finished.append(request.op)

            t0 = time.perf_counter()
            fetch = asyncio.create_task(call(BlockFetchRequest(keys=("k",))))
            await asyncio.sleep(0.05)  # the fetch is on the wire, unanswered
            await call(PingRequest())
            assert time.perf_counter() - t0 < 0.25
            await fetch
            assert finished == ["ping", "block.fetch"]
            link.reset()
            server.close()
            await server.wait_closed()

        asyncio.run(check())

    def test_admin_heal_gets_through_a_partitioned_node(self):
        async def check():
            node = StorageNode("n0", seed=0)
            server = await start_storage_node(node, port=0)
            coord = coordinator(rpc_timeout=5.0)
            await coord.register("n0", *address(server))
            link = coord.nodes["n0"]
            await coord._rpc(link, BlockPutRequest(blocks={"k": b"\n\xff"}))
            node.partitioned = True
            parked = asyncio.create_task(
                coord._rpc(link, BlockFetchRequest(keys=("k",)))
            )
            await asyncio.sleep(0.05)
            assert not parked.done()
            # Same link, same connection: the out-of-band heal is
            # answered while the data-plane request is still parked.
            healed = await coord._rpc(link, NodeAdminRequest(action="heal"))
            assert healed.info["partitioned"] is False
            assert (await parked).blocks == {"k": b"\n\xff"}
            link.reset()
            server.close()
            await server.wait_closed()

        asyncio.run(check())


@contextmanager
def recorded_writes():
    """Every ``StreamWriter.write`` inside, as the writer that made it."""
    writes = []
    real = asyncio.StreamWriter.write

    def write(self, data):
        writes.append(self)
        return real(self, data)

    asyncio.StreamWriter.write = write
    try:
        yield writes
    finally:
        asyncio.StreamWriter.write = real


class TestBursts:
    def test_a_put_writes_once_per_owner_per_stripe(self, monkeypatch):
        encoded, bursts = [], []
        encode, exchange_many = (
            coordinator_mod.encode_request,
            NodeLink.exchange_many,
        )

        def recording(request, **kwargs):
            encoded.append(request)
            return encode(request, **kwargs)

        async def recording_many(link, items, timeout):
            bursts.append([(link.node_id, request_id) for request_id, _ in items])
            return await exchange_many(link, items, timeout)

        # The seam the benchmark's framing layer is measured at.
        monkeypatch.setattr(coordinator_mod, "encode_request", recording)
        monkeypatch.setattr(NodeLink, "exchange_many", recording_many)

        async def check():
            coord = coordinator()
            servers = []
            for i in range(4):
                servers.append(
                    await start_storage_node(StorageNode(f"node-{i}"), port=0)
                )
                await coord.register(f"node-{i}", *address(servers[-1]))
            payload = np.random.default_rng(0).bytes(2 * 48 * 64)
            encoded.clear()
            bursts.clear()
            with recorded_writes() as writes:
                info = await coord.put("obj", payload)
            assert (info["stripes"], info["failed_blocks"]) == (2, 0)
            links = {link._writer: nid for nid, link in coord.nodes.items()}
            sent = [links[w] for w in writes if w in links]
            # Two stripes: each owner got two writes, not 2 x 24 ...
            assert sorted(sent) == sorted(2 * list(coord.nodes))
            assert sorted(len(b) for b in bursts) == [24] * 8
            # ... carrying 96 one-block requests per stripe, each under
            # its own id.
            assert [len(r.blocks) for r in encoded] == [1] * 2 * 96
            ids = [item for burst in bursts for item in burst]
            assert len(set(ids)) == 2 * 96
            got = await coord.get("obj", want_payload=True)
            assert got.payload == payload
            for link in coord.nodes.values():
                link.reset()
            for server in servers:
                server.close()
                await server.wait_closed()

        asyncio.run(check())

    def test_pipelined_pings_are_answered_in_fewer_writes(self):
        burst = 16

        async def handler(request, envelope):
            return PongResponse()

        async def check():
            server = await start_line_server(handler, port=0)
            reader, writer = await asyncio.open_connection(*address(server))
            with recorded_writes() as writes:
                writer.write(
                    b"".join(
                        encode_request(PingRequest(), request_id=i)
                        for i in range(burst)
                    )
                )
                replies = [
                    json.loads(await reader.readline()) for _ in range(burst)
                ]
            assert sorted(r["id"] for r in replies) == list(range(burst))
            assert all(r["kind"] == "pong" for r in replies)
            answers = [w for w in writes if w is not writer]
            assert 0 < len(answers) < burst
            writer.close()
            server.close()
            await server.wait_closed()

        asyncio.run(check())

    def test_a_deadline_mid_burst_drops_once_and_fails_the_unanswered(self):
        burst, answered = 8, 3
        seen = {"connections": 0}

        async def half_answering(reader, writer):
            seen["connections"] += 1
            frames = [await read_frame(reader) for _ in range(burst)]
            for frame in frames[:answered]:
                writer.write(
                    encode_frame(PongResponse().to_frame(request_id=frame["id"]))
                )
            try:
                await writer.drain()
                await reader.read()  # silent until the link hangs up
            finally:
                writer.close()

        async def check():
            server = await asyncio.start_server(
                half_answering, "127.0.0.1", 0
            )
            link = NodeLink("n", *address(server))
            outcomes = await link_rpc_many(
                link, [PingRequest()] * burst, retry=None, timeout=0.3
            )
            assert all(
                isinstance(o, PongResponse) for o in outcomes[:answered]
            )
            late = outcomes[answered:]
            assert all(isinstance(o, NodeDownError) for o in late)
            assert all("RPC deadline" in str(o) for o in late)
            assert link._writer is None and link.alive is False
            assert seen == {"connections": 1}
            server.close()
            await server.wait_closed()

        with capture() as registry:
            asyncio.run(check())
        assert registry.snapshot()["counters"]["cluster.rpc.timeouts"] == 1


class TestFailure:
    def test_node_closed_with_a_stripe_in_flight(self):
        """SIGKILL analogue with 24 ``block.put`` on the wire: each fails
        exactly once, the put reports them, and nothing is left behind."""
        seen = {"puts": 0, "connections": 0}

        async def dying_node(reader, writer):
            seen["connections"] += 1
            while seen["puts"] < 24:
                frame = await read_frame(reader)
                seen["puts"] += frame["op"] == "block.put"
            writer.close()  # dies with all 24 unanswered

        async def check():
            coord = coordinator()
            servers = []
            for i in range(3):
                servers.append(
                    await start_storage_node(StorageNode(f"node-{i}"), port=0)
                )
                await coord.register(f"node-{i}", *address(servers[-1]))
            servers.append(
                await asyncio.start_server(dying_node, "127.0.0.1", 0)
            )
            # Registered behind the coordinator's back: a raw server
            # cannot answer the join-time drain.
            coord.ring.add("node-3")
            doomed = coord.nodes["node-3"] = NodeLink(
                "node-3", *address(servers[-1])
            )
            failures = []
            rpc_many = coord._rpc_many  # retry=None: one attempt per RPC

            async def counting(link, requests):
                outcomes = await rpc_many(link, requests)
                for request, outcome in zip(requests, outcomes):
                    if isinstance(outcome, NodeDownError):
                        (key,) = request.blocks
                        failures.append((key, str(outcome)))
                return outcomes

            coord._rpc_many = counting
            payload = np.random.default_rng(0).bytes(48 * 64)
            info = await coord.put("obj", payload)
            assert (info["blocks"], info["failed_blocks"]) == (72, 24)
            assert len(failures) == len({key for key, _ in failures}) == 24
            assert all("closed the connection" in why for _, why in failures)
            assert seen == {"puts": 24, "connections": 1}
            assert doomed.alive is False and doomed._writer is None
            # The object is readable around the dead node.
            got = await coord.get("obj", want_payload=True)
            assert got.payload == payload
            for link in coord.nodes.values():
                coord._reset_connection(link)
            for server in servers:
                server.close()
                await server.wait_closed()
            # No reader task, handler or future outlives its transport.
            pending = asyncio.all_tasks() - {asyncio.current_task()}
            if pending:
                await asyncio.wait(pending, timeout=5)
            assert not [t for t in pending if not t.done()]

        with no_leak_warnings():
            asyncio.run(check())

    def test_one_expired_deadline_fails_the_connection_then_reconnects(self):
        async def check():
            node = StorageNode("n0", seed=0)
            server = await start_storage_node(node, port=0)
            coord = coordinator(rpc_timeout=0.2)
            await coord.register("n0", *address(server))
            link = coord.nodes["n0"]
            await coord._rpc(link, PingRequest())
            first = link._writer
            node.partitioned = True
            t0 = time.perf_counter()
            results = await asyncio.gather(
                *(coord._rpc(link, PingRequest()) for _ in range(6)),
                return_exceptions=True,
            )
            # One deadline's worth of waiting fails all six at once.
            assert time.perf_counter() - t0 < 0.2 * 3
            assert all(isinstance(r, NodeDownError) for r in results)
            assert all("RPC deadline" in str(r) for r in results)
            assert link._writer is None and link.alive is False
            assert first.transport.is_closing()
            node.partitioned = False
            assert (await coord._rpc(link, PingRequest())).pong is True
            assert link._writer is not None and link._writer is not first
            assert link.alive is True
            link.reset()
            server.close()
            await server.wait_closed()

        with capture() as registry:
            asyncio.run(check())
        assert registry.snapshot()["counters"]["cluster.rpc.timeouts"] == 1

    def test_refused_connection_is_node_down_and_retried_per_policy(self):
        async def check():
            server = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            host, port = address(server)
            server.close()
            await server.wait_closed()
            coord = coordinator(
                retry=RetryPolicy(max_attempts=2, base_delay=0.01, seed=3)
            )
            link = NodeLink("gone", host, port)
            with pytest.raises(NodeDownError, match="unreachable"):
                await coord._rpc(link, PingRequest())
            assert link.alive is False

        with capture() as registry:
            asyncio.run(check())
        assert registry.snapshot()["counters"]["cluster.rpc.retries"] == 2


class TestRetrySchedule:
    def test_backoff_schedule_is_drawn_on_the_first_failure_only(self):
        """A healthy RPC never builds the retry schedule; a failing one
        builds it once and sleeps exactly the policy's delays."""
        draws = []

        class CountingPolicy(RetryPolicy):
            def delays(self):
                draws.append(1)
                return super().delays()

        policy = CountingPolicy(
            max_attempts=3, base_delay=0.001, jitter=0.5, seed=11
        )
        slept = []

        async def check():
            node = StorageNode("n0", seed=0)
            server = await start_storage_node(node, port=0)
            coord = coordinator(retry=policy)
            await coord.register("n0", *address(server))
            link = coord.nodes["n0"]
            for _ in range(20):
                await coord._rpc(link, PingRequest())
            assert draws == []
            link.reset()
            server.close()
            await server.wait_closed()
            real_sleep = asyncio.sleep

            async def recording_sleep(delay):
                slept.append(delay)
                await real_sleep(0)

            asyncio.sleep = recording_sleep
            try:
                with pytest.raises(NodeDownError):
                    await coord._rpc(link, PingRequest())
            finally:
                asyncio.sleep = real_sleep

        asyncio.run(check())
        assert draws == [1]
        assert slept == RetryPolicy(
            max_attempts=3, base_delay=0.001, jitter=0.5, seed=11
        ).delays()


class TestSleepHook:
    def test_link_backoff_sleeps_through_the_policy_hook(self):
        """A policy's ``sleep`` hook takes every link backoff: it sees
        the policy's delays, and ``asyncio.sleep`` is never awaited."""
        hooked = []
        policy = RetryPolicy(
            max_attempts=3,
            base_delay=0.001,
            jitter=0.5,
            seed=11,
            sleep=hooked.append,
        )
        awaited = []

        async def check():
            server = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            host, port = address(server)
            server.close()
            await server.wait_closed()
            link = NodeLink("gone", host, port)
            real_sleep = asyncio.sleep

            async def recording_sleep(delay, *args, **kwargs):
                awaited.append(delay)
                await real_sleep(0)

            asyncio.sleep = recording_sleep
            try:
                with pytest.raises(NodeDownError, match="unreachable"):
                    await link_rpc(
                        link, PingRequest(), retry=policy, timeout=5.0
                    )
            finally:
                asyncio.sleep = real_sleep
            assert link.alive is False

        with capture() as registry:
            asyncio.run(check())
        assert hooked == policy.delays()
        assert awaited == []
        counters = registry.snapshot()["counters"]
        assert counters["cluster.rpc.retries"] == 3
        assert counters["resilience.retry.waits"] == 3
