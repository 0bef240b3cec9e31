"""Blocking-client tests against in-process servers on a loop thread."""

import asyncio
import hashlib
import threading

import pytest

from repro.serve import (
    ArchiveClient,
    ClusterClient,
    ReconstructionService,
    ServeConfig,
    seeded_archive,
    start_frontend,
)
from repro.cluster import StorageNode, start_storage_node
from repro.core import tornado_graph
from repro.obs import FleetScraper, ScrapeTarget
from repro.serve.lineserver import start_line_server
from repro.serve.protocol import (
    AckResponse,
    PongResponse,
    ProtocolError,
    RemoteError,
)
from repro.storage.device import TransientUnavailableError


class LoopThread:
    """An asyncio loop on a daemon thread; sync tests drive coroutines."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )
        self.thread.start()

    def run(self, coro, timeout=30.0):
        return asyncio.run_coroutine_threadsafe(
            coro, self.loop
        ).result(timeout)

    def stop(self):
        async def cancel_connection_handlers():
            pending = asyncio.all_tasks() - {asyncio.current_task()}
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)

        self.run(cancel_connection_handlers())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()
        self.loop.close()


async def _close_on_loop(server) -> None:
    """``Server.close`` is not thread-safe: called from the test thread
    it races the loop's own wake-up as the last connection detaches."""
    server.close()


@pytest.fixture
def loop_thread():
    lt = LoopThread()
    yield lt
    lt.stop()


@pytest.fixture
def frontend(loop_thread):
    """A live frontend over a seeded archive; yields (client, expected)."""
    graph = tornado_graph(16, seed=3, min_final_lefts=6)
    archive, names = seeded_archive(
        graph, objects=2, object_size=1024, block_size=64, seed=0
    )
    expected = {name: archive.get(name) for name in names}

    async def setup():
        service = ReconstructionService(
            archive, ServeConfig(batch_window=0.0)
        )
        await service.start()
        server = await start_frontend(service, port=0)
        return service, server

    service, server = loop_thread.run(setup())
    host, port = server.sockets[0].getsockname()[:2]
    client = ArchiveClient(host, port)
    yield client, expected

    async def teardown():
        server.close()
        await server.wait_closed()
        await service.close()

    client.close()
    loop_thread.run(teardown())


@pytest.fixture
def node_endpoint(loop_thread):
    """A live storage node; yields (client, node)."""
    node = StorageNode("node-t", seed=1)

    async def setup():
        return await start_storage_node(node, port=0)

    server = loop_thread.run(setup())
    host, port = server.sockets[0].getsockname()[:2]
    client = ClusterClient(host, port)
    yield client, node
    client.close()
    loop_thread.run(_close_on_loop(server))


class TestFrontendClient:
    def test_get_matches_archive_content(self, frontend):
        client, expected = frontend
        for name, payload in expected.items():
            info = client.get(name)
            assert info.size == len(payload)
            assert info.sha256 == hashlib.sha256(payload).hexdigest()

    def test_ping_and_stats(self, frontend):
        client, _ = frontend
        assert client.ping() is True
        stats = client.stats()
        assert stats["state"] == "running"
        assert "plan_cache" in stats

    def test_unknown_object_raises_key_error(self, frontend):
        client, _ = frontend
        with pytest.raises(KeyError):
            client.get("no-such-object")

    def test_context_manager_reconnects_per_instance(self, frontend):
        client, expected = frontend
        name = sorted(expected)[0]
        with ArchiveClient(client.host, client.port) as fresh:
            assert fresh.get(name).size == len(expected[name])


class TestClusterClientBlockPlane:
    def test_block_round_trip(self, node_endpoint):
        client, _ = node_endpoint
        client.block_put("a/0/0", b"\x01\x02")
        assert client.block_get("a/0/0") == b"\x01\x02"
        held, missing = client.block_fetch(("a/0/0", "a/0/1"))
        assert held == {"a/0/0": b"\x01\x02"}
        assert missing == ("a/0/1",)
        assert client.block_list() == ("a/0/0",)
        assert client.block_delete("a/0/0") is True
        assert client.block_delete("a/0/0") is False

    def test_missing_block_raises_key_error(self, node_endpoint):
        client, _ = node_endpoint
        with pytest.raises(KeyError):
            client.block_get("nope")

    def test_node_admin_interrupt_darkens_data_plane_only(
        self, node_endpoint
    ):
        client, node = node_endpoint
        client.block_put("k", b"x")
        client.node_admin("interrupt")
        # Control plane still answers; data plane reports unavailable.
        assert client.ping() is True
        assert client.stats()["available"] is False
        with pytest.raises(TransientUnavailableError):
            client.block_get("k")
        client.node_admin("restore")
        assert client.block_get("k") == b"x"
        # Blocks survived the outage — unavailability is not loss.
        assert node.store.bytes_stored == 1

    def test_cluster_op_on_node_is_structured_unknown_op(
        self, node_endpoint
    ):
        client, _ = node_endpoint
        with pytest.raises(RemoteError) as excinfo:
            client.status()
        assert excinfo.value.code == "unknown_op"
        # The connection survived the rejection.
        assert client.ping() is True


@pytest.fixture
def wrong_kind_server(loop_thread):
    """A line server whose every reply is well-formed but of a kind no
    accessor of the op expects: ``pong`` where an ack is due, else ack."""

    async def handler(request, envelope):
        if request.op in ("put", "repair"):
            return PongResponse()
        return AckResponse(info={})

    server = loop_thread.run(start_line_server(handler, port=0))
    yield server.sockets[0].getsockname()[:2]
    loop_thread.run(_close_on_loop(server))


class TestKindCheck:
    @pytest.mark.parametrize(
        "accessor",
        [
            lambda c: c.ping(),
            lambda c: c.metrics(),
            lambda c: c.stats(),
            lambda c: c.metrics_snapshot(),
            lambda c: c.put("obj", b"x"),
            lambda c: c.get("obj"),
            lambda c: c.status(),
            lambda c: c.repair(),
        ],
        ids=[
            "ping", "metrics", "stats", "metrics_snapshot",
            "put", "get", "status", "repair",
        ],
    )
    def test_mismatched_reply_kind_is_a_protocol_error(
        self, wrong_kind_server, accessor
    ):
        with ArchiveClient(*wrong_kind_server) as client:
            with pytest.raises(ProtocolError, match="expected"):
                accessor(client)

    def test_scraper_reports_the_same_error_for_its_target(
        self, wrong_kind_server
    ):
        host, port = wrong_kind_server
        scraper = FleetScraper([ScrapeTarget("node", "n0", host, port)])
        status = scraper.scrape_once()["targets"]["n0"]
        assert status["up"] is False
        assert status["error"].startswith("ProtocolError: server answered")
