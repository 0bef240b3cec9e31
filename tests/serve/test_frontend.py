"""TCP front-end protocol tests (ephemeral port, in-process service)."""

import asyncio
import hashlib

from repro.core import tornado_graph
from repro.obs.prom import render_prometheus
from repro.serve import (
    ReconstructionService,
    ServeConfig,
    seeded_archive,
    start_frontend,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    GetRequest,
    MetricsSnapshotRequest,
    PingRequest,
    StatsRequest,
    encode_request,
)

from .wire import BOGUS_OP, frame, read_reply


def get(name: str, request_id: int = 0) -> bytes:
    return encode_request(GetRequest(name=name), request_id=request_id)


def small_archive():
    graph = tornado_graph(16, seed=3, min_final_lefts=6)
    return seeded_archive(
        graph, objects=2, object_size=1024, block_size=64, seed=0
    )


async def _roundtrip(requests):
    """Run one client session against a fresh service; returns replies."""
    archive, names = small_archive()
    expected = {name: archive.get(name) for name in names}
    async with ReconstructionService(
        archive, ServeConfig(batch_window=0.0)
    ) as service:
        server = await start_frontend(service, port=0)
        try:
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            replies = []
            for request in requests:
                writer.write(request)
                await writer.drain()
                replies.append(await read_reply(reader))
            writer.close()
            await writer.wait_closed()
        finally:
            server.close()
            await server.wait_closed()
    return names, expected, replies


class TestFrontend:
    def test_get_returns_size_and_digest(self):
        names, expected, (reply,) = asyncio.run(
            _roundtrip([get("object-000")])
        )
        data = expected["object-000"]
        assert reply == {
            "v": PROTOCOL_VERSION,
            "ok": True,
            "kind": "object",
            "name": "object-000",
            "size": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        }

    def test_ping_stats_and_errors(self):
        _, _, replies = asyncio.run(
            _roundtrip(
                [
                    encode_request(PingRequest()),
                    encode_request(StatsRequest()),
                    get("missing"),
                    frame("get", "I??d", 0, False, False, 0.0),
                    frame(BOGUS_OP),
                    b'{"v": 4, "op": "ping"}\n',  # an old JSON line
                ]
            )
        )
        ping, stats, missing, nameless, bogus, garbage = replies
        assert ping == {
            "v": PROTOCOL_VERSION, "ok": True, "kind": "pong", "pong": True
        }
        assert stats["ok"] is True
        assert stats["stats"]["state"] == "running"
        assert "counters" in stats["stats"]
        assert missing["ok"] is False
        assert missing["error"] == "KeyError"
        assert nameless["ok"] is False
        assert nameless["error"] == "BadRequest"
        assert bogus["ok"] is False
        assert "unknown request code" in bogus["message"]
        assert garbage["ok"] is False
        assert "JSON header line" in garbage["message"]

    def test_multiple_gets_share_one_connection(self):
        names, expected, replies = asyncio.run(
            _roundtrip(
                [get(n) for n in ["object-000", "object-001", "object-000"]]
            )
        )
        assert [r["ok"] for r in replies] == [True, True, True]
        assert replies[0]["sha256"] == replies[2]["sha256"]
        assert replies[1]["sha256"] == hashlib.sha256(
            expected["object-001"]
        ).hexdigest()

    def test_metrics_snapshot_renders_as_prometheus_text(self):
        _, _, (get_reply, metrics_reply) = asyncio.run(
            _roundtrip(
                [get("object-000"), encode_request(MetricsSnapshotRequest())]
            )
        )
        assert get_reply["ok"] is True
        assert metrics_reply["ok"] is True
        text = render_prometheus(metrics_reply["snapshot"])
        assert "# TYPE repro_serve_completed_total counter" in text
        assert "repro_serve_completed_total 1" in text
        # Request latency surfaces as a cumulative-bucket histogram.
        assert "# TYPE repro_serve_request_latency_seconds histogram" in text
        assert 'le="+Inf"' in text
        assert "repro_serve_request_latency_seconds_count 1" in text


class TestConcurrentWrites:
    def test_pipelined_replies_never_interleave(self):
        """Regression: each request line is handled in its own task, so
        concurrent handlers race to write one shared connection — every
        reply line must still be a complete, parseable frame, correlated
        by the echoed ``id``."""

        async def run():
            archive, names = small_archive()
            async with ReconstructionService(
                archive, ServeConfig(batch_window=0.0)
            ) as service:
                server = await start_frontend(service, port=0)
                try:
                    host, port = server.sockets[0].getsockname()[:2]
                    reader, writer = await asyncio.open_connection(
                        host, port
                    )
                    total = 60
                    # One burst write of many pipelined requests.
                    burst = b"".join(
                        get(names[i % len(names)], request_id=i)
                        for i in range(total)
                    )
                    writer.write(burst)
                    await writer.drain()
                    replies = []
                    for _ in range(total):
                        replies.append(await read_reply(reader))
                    writer.close()
                    await writer.wait_closed()
                finally:
                    server.close()
                    await server.wait_closed()
            return replies

        replies = asyncio.run(run())
        assert all(r["ok"] for r in replies)
        # Every request answered exactly once, whatever the order.
        assert sorted(r.get("id", 0) for r in replies) == list(range(60))
