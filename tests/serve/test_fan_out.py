"""One multi-link RPC call (``link_rpcs``) with one faulty peer.

Each case sends the same requests to two healthy storage nodes and to
one faulty peer twice: once as one fan-out over the three links, once
as one call per link (the one-link path).  Every request's outcome, the
spans and the retry count must come out the same, and nothing may log
an exception nobody retrieved.  The retry policy backs off through a
no-op ``sleep`` hook, so no case waits on a backoff; a deadline case
waits for its deadline and asserts nothing about how long that took.
"""

import asyncio
import gc
import re

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator, StorageNode, start_storage_node
from repro.cluster.coordinator import NodeLink, link_rpcs
from repro.core.codec import BlockRun
from repro.graphs import tornado_catalog_graph
from repro.obs.registry import capture
from repro.obs.trace import Tracer, trace_capture
from repro.resilience import RetryPolicy
from repro.serve.protocol import (
    BlockFetchRequest,
    BlockRunResponse,
    BlockPutRequest,
    PingRequest,
    PongResponse,
    encode_frame,
    parse_request,
)

from .test_link import address
from .wire import read_frame

RETRY = RetryPolicy(
    max_attempts=2, base_delay=0.001, seed=1, sleep=lambda delay: None
)
TIMEOUT = 0.2
HEALTHY = ("node-0", "node-1")


def requests():
    return [
        BlockFetchRequest(keys=("k",)),
        PingRequest(),
        BlockFetchRequest(keys=("gone",)),
    ]


def answer(request):
    """What the scripted peers reply: what a node holding nothing says."""
    if isinstance(request, PingRequest):
        return PongResponse()
    return BlockRunResponse(missing=request.keys)


class ScriptedPeer:
    """A raw peer that runs ``script(peer, reader, writer)`` on each
    connection; a script that never returns on its own waits for
    ``peer.closed``, which closing the peer sets."""

    def __init__(self, script):
        self.script, self.handlers = script, set()
        self.closed = asyncio.Event()

    async def start(self):
        self.server = await asyncio.start_server(self.handle, "127.0.0.1", 0)
        return address(self.server), self

    async def handle(self, reader, writer):
        self.handlers.add(asyncio.current_task())
        try:
            await self.script(self, reader, writer)
        finally:
            writer.close()

    def close(self):
        self.server.close()
        self.closed.set()

    async def wait_closed(self):
        await self.server.wait_closed()
        await asyncio.gather(*self.handlers, return_exceptions=True)


async def serve_script(script):
    return await ScriptedPeer(script).start()


async def dead():
    server = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
    host_port = address(server)
    server.close()
    await server.wait_closed()
    return host_port, None


async def erroring():
    node = StorageNode("faulty", seed=0)
    node.interrupt()  # block.fetch answers ``unavailable``; ping pongs
    server = await start_storage_node(node, port=0)
    return address(server), server


async def silent():
    async def never_answers(peer, reader, writer):
        await reader.read()  # reads every request, answers none

    return await serve_script(never_answers)


RECEIVED: list[list[str]] = []  # ops the resetting peer got, per connection


async def resetting():
    RECEIVED.clear()

    async def script(peer, reader, writer):
        n = len(peer.handlers)
        got = []
        RECEIVED.append(got)
        while (data := await read_frame(reader)) is not None:
            request, envelope = parse_request(data)
            got.append(request.op)
            if n > 1 or len(got) == 1:
                writer.write(encode_frame(answer(request), request_id=envelope.id))
            if n == 1 and len(got) == len(requests()):
                await writer.drain()
                return  # resets with two requests unanswered

    return await serve_script(script)


async def not_reading():
    async def stalled(peer, reader, writer):
        await peer.closed.wait()  # never reads: the buffer fills

    return await serve_script(stalled)


async def fill_the_buffer(link):
    """Park a burst larger than any socket buffer on ``link``: it holds
    the link lock until the link drops."""
    bulk = [BlockPutRequest.of({f"b{i}": bytes(1 << 20)}) for i in range(16)]
    task = asyncio.ensure_future(
        link_rpcs([(link, bulk)], retry=None, timeout=60.0)
    )
    while not link._lock.locked():
        await asyncio.sleep(0.01)
    return task


CASES = {
    "dead": (dead, None),
    "error": (erroring, None),
    "deadline": (silent, None),
    "full-buffer": (not_reading, fill_the_buffer),
    "reset-then-retry": (resetting, None),
}


def summary(outcome):
    if isinstance(outcome, Exception):
        return type(outcome).__name__, re.sub(r"\d+", "#", str(outcome))
    return outcome


async def run_case(case: str, together: bool):
    logged = []
    asyncio.get_running_loop().set_exception_handler(
        lambda _, context: logged.append(context["message"])
    )
    start, prepare = CASES[case]
    nodes, servers = [], []
    for node_id in HEALTHY:
        node = StorageNode(node_id, seed=0)
        node.store.put("k", bytes(64))
        nodes.append(node)
        servers.append(await start_storage_node(node, port=0))
    (host, port), faulty_server = await start()
    links = [NodeLink(nid, *address(s)) for nid, s in zip(HEALTHY, servers)]
    links.append(NodeLink("faulty", host, port))
    bulk = await prepare(links[-1]) if prepare else None
    served_at_expiry = []
    expire = links[-1].expire

    def recording_expire(replies, timeout):
        served_at_expiry.append(sum(n.store.stats()["gets"] for n in nodes))
        expire(replies, timeout)

    links[-1].expire = recording_expire
    bursts = [(link, requests()) for link in links]
    if together:
        outcomes = await link_rpcs(bursts, retry=RETRY, timeout=TIMEOUT)
    else:
        outcomes = [
            (await link_rpcs([burst], retry=RETRY, timeout=TIMEOUT))[0]
            for burst in bursts
        ]
    if bulk is not None:
        (parked,) = await bulk
        assert all(type(o).__name__ == "NodeDownError" for o in parked)
    alive = [link.alive for link in links]
    for link in links:
        link.reset()
    for server in [*servers, faulty_server]:
        if server is not None:
            server.close()
            await server.wait_closed()
    await asyncio.sleep(0)
    gc.collect()
    return (
        [[summary(o) for o in out] for out in outcomes],
        alive,
        served_at_expiry,
        logged,
    )


def observe(case: str, together: bool):
    tracer = Tracer(seed=0)
    with capture() as registry, trace_capture(tracer):
        outcomes, alive, served, logged = asyncio.run(run_case(case, together))
    counters = registry.snapshot()["counters"]
    spans = sorted(
        (r["attrs"]["node"], r["name"], r["attrs"].get("error", ""))
        for r in tracer.records
    )
    return {
        "outcomes": outcomes,
        "alive": alive,
        "spans": spans,
        "retries": counters.get("cluster.rpc.retries", 0),
        "timeouts": counters.get("cluster.rpc.timeouts", 0),
        "served_at_expiry": served,
        "logged": logged,
    }


@pytest.mark.parametrize("case", list(CASES))
def test_a_fan_out_matches_the_one_link_path(case):
    fanned = observe(case, together=True)
    alone = observe(case, together=False)
    for key in ("outcomes", "alive", "spans", "retries", "timeouts"):
        assert fanned[key] == alone[key], key
    assert fanned["logged"] == alone["logged"] == []
    healthy = [
        [BlockRunResponse(blocks=BlockRun((64,), bytes(64))), PongResponse(),
         BlockRunResponse(missing=("gone",))]
    ] * len(HEALTHY)
    # The healthy links' replies are kept, whatever the faulty one did,
    # and only the faulty link can be dropped.
    assert fanned["outcomes"][: len(HEALTHY)] == healthy
    assert fanned["alive"][: len(HEALTHY)] == [True] * len(HEALTHY)
    faulty = fanned["outcomes"][-1]
    if case == "dead":
        assert fanned["retries"] == RETRY.max_attempts
        assert fanned["alive"][-1] is False
        assert all(o[0] == "NodeDownError" and "unreachable" in o[1] for o in faulty)
    elif case == "error":
        assert fanned["retries"] == 0 and fanned["alive"][-1] is True
        assert faulty[1] == PongResponse()
        assert faulty[0][0] == faulty[2][0] == "TransientUnavailableError"
    elif case in ("deadline", "full-buffer"):
        assert fanned["alive"][-1] is False
        assert fanned["timeouts"] == RETRY.max_attempts + 1
        assert all("RPC deadline" in o[1] for o in faulty)
        # Both healthy nodes had served their fetch before the faulty
        # link's first deadline fired: their bursts never waited.
        assert fanned["served_at_expiry"][0] == len(HEALTHY)
    else:  # reset-then-retry: the retry re-sends only the unanswered two
        assert fanned["retries"] == 1 and fanned["alive"][-1] is True
        assert faulty == [answer(r) for r in requests()]
        assert RECEIVED == [
            ["block.fetch", "ping", "block.fetch"], ["ping", "block.fetch"]
        ]


class TestMalformedReplies:
    """A node reply whose run does not match its request is refused, not
    trusted: one liar sends a block more than it was asked for, one
    sizes its run past its bytes, one sends a short block, and one
    lists a key missing and sends the other (which loses nothing).
    Each refusal is erasures counted in ``cluster.fetch.malformed_blocks``,
    never a ``KeyError`` or an ``IndexError``.  A stripe fan-out refuses
    the same blocks as one call per node."""

    @staticmethod
    def liar(lie):
        async def script(peer, reader, writer):
            while (data := await read_frame(reader)) is not None:
                request, envelope = parse_request(data)
                reply = lie(request.keys)
                writer.write(encode_frame(reply, request_id=envelope.id))

        return script

    @classmethod
    async def fetch(cls, together: bool):
        coord = ClusterCoordinator(
            tornado_catalog_graph(3), block_size=64, retry=None
        )
        block = bytes(range(64))
        honest = StorageNode("honest", seed=0)
        for key in ("honest-0", "honest-1"):
            honest.store.put(key, block)
        servers = [await start_storage_node(honest, port=0)]
        coord.nodes["honest"] = NodeLink("honest", *address(servers[0]))
        lies = {  # each is asked for two keys
            "extra": lambda keys: BlockRunResponse(blocks=BlockRun.of([block] * 3)),
            "oversized": lambda keys: BlockRunResponse(
                blocks=BlockRun((64, 65), block * 2)
            ),
            "short": lambda keys: BlockRunResponse(
                blocks=BlockRun.of([block[:10], block])
            ),
            "lacking": lambda keys: BlockRunResponse(
                blocks=BlockRun.of([block]), missing=keys[:1]
            ),
        }
        for node_id, lie in lies.items():
            peer_address, peer = await serve_script(cls.liar(lie))
            servers.append(peer)
            coord.nodes[node_id] = NodeLink(node_id, *peer_address)
        wanted = [
            (node_id, (f"{node_id}-0", f"{node_id}-1"), np.array([2 * i, 2 * i + 1]))
            for i, node_id in enumerate(["honest", *lies])
        ]
        if together:
            got = [await coord._fetch_blocks(wanted, 10)]
        else:
            got = [await coord._fetch_blocks([w], 10) for w in wanted]
        for link in coord.nodes.values():
            link.reset()
        for server in servers:
            server.close()
            await server.wait_closed()
        present = np.any([have for _, have in got], axis=0)
        blocks = np.sum([rows for rows, _ in got], axis=0)
        return blocks, present

    def test_a_run_that_does_not_fit_its_request_is_erasures(self):
        results = {}
        for together in (True, False):
            with capture() as registry:
                results[together] = asyncio.run(self.fetch(together))
            counters = registry.snapshot()["counters"]
            # 3 (a block too many) + 2 (sizes past the run) + 1 (short)
            assert counters["cluster.fetch.malformed_blocks"] == 6
        (blocks, present), (alone_blocks, alone_present) = results.values()
        assert present.tolist() == [True] * 2 + [False] * 5 + [True, False, True]
        assert (present == alone_present).all()
        assert (blocks == alone_blocks).all()
        assert (blocks[present] == np.arange(64, dtype=np.uint8)).all()
