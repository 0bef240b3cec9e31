"""Storage-node logic: block store, availability process, node spans."""

import asyncio

import pytest

from repro.cluster import StorageNode, start_storage_node
from repro.cluster import node as node_module
from repro.core.codec import BlockRun
from repro.obs.trace import Tracer, context_seed, trace_capture
from repro.resilience import FaultPlan
from repro.resilience.faults import TransientOutages
from repro.serve.client import ClusterClient
from repro.serve.protocol import (
    BlockDeleteRequest,
    BlockFetchRequest,
    BlockListRequest,
    BlockPutRequest,
    Envelope,
    MetricsSnapshotRequest,
    MetricsSnapshotResponse,
    PingRequest,
    StatsRequest,
    encode_request,
)
from repro.storage.device import TransientUnavailableError

from ..serve.wire import read_frame, reply_dict


def served(node, request):
    """One request through the node's endpoint (control plane = the
    shared archive-service rows; the rest lands in ``node.handle``)."""
    return node.endpoint()(request, Envelope())


class TestStorageNodeLogic:
    def test_block_ops_round_trip(self):
        node = StorageNode("n0")
        stored = node.handle(BlockPutRequest.of({"a/0/0": b"xy"}))
        assert stored.info is None  # an ack with no body
        fetched = node.handle(
            BlockFetchRequest(keys=("a/0/0", "a/0/1"))
        )
        assert fetched.blocks == BlockRun.of([b"xy"])
        assert fetched.missing == ("a/0/1",)
        listed = node.handle(BlockListRequest(prefix="a/"))
        assert listed.keys == ("a/0/0",)

    def test_interrupt_gates_data_plane_not_control_plane(self):
        node = StorageNode("n0")
        node.handle(BlockPutRequest.of({"k": b"v"}))
        node.interrupt(steps=2)
        with pytest.raises(TransientUnavailableError):
            node.handle(BlockFetchRequest(keys=("k",)))
        # Control plane answers during the outage.
        assert served(node, PingRequest()).pong is True
        stats = served(node, StatsRequest()).stats
        assert stats["available"] is False
        assert stats["outage_remaining"] == 2
        # Stepping through the outage restores availability.
        assert node.step() is False
        assert node.step() is True
        fetched = node.handle(BlockFetchRequest(keys=("k",)))
        assert fetched.blocks == BlockRun.of([b"v"])

    def test_batch_put_during_an_outage_stores_nothing(self):
        node = StorageNode("n0")
        node.handle(BlockPutRequest.of({"old": b"o"}))
        node.interrupt()
        batch = {f"k{i}": bytes([i]) * 4 for i in range(5)}
        with pytest.raises(TransientUnavailableError):
            node.handle(BlockPutRequest.of({"old": b"new", **batch}))
        node.restore()
        # The availability check precedes the first write.
        assert tuple(node.store.keys()) == ("old",)
        assert node.store.get("old") == b"o"
        assert node.store.stats()["puts"] == 1
        assert node.handle(BlockPutRequest.of(batch)).info is None
        fetched = node.handle(BlockFetchRequest(keys=tuple(batch)))
        assert fetched.blocks == BlockRun.of(batch.values())
        assert fetched.missing == ()

    def test_batch_delete_counts_what_it_held_and_is_idempotent(self):
        node = StorageNode("n0")
        node.handle(BlockPutRequest.of({"a": b"1", "b": b"22", "c": b"3"}))
        doomed = BlockDeleteRequest(keys=("a", "b", "never-stored"))
        assert node.handle(doomed).info == {"deleted": 2}
        assert node.handle(doomed).info == {"deleted": 0}
        assert tuple(node.store.keys()) == ("c",)
        assert node.store.bytes_stored == 1

    def test_empty_batches_are_no_op_acks(self):
        node = StorageNode("n0")
        node.handle(BlockPutRequest.of({"a": b"1"}))
        assert node.handle(BlockPutRequest.of({})).info is None
        assert node.handle(BlockDeleteRequest(keys=())).info == {"deleted": 0}
        assert node.store.stats()["puts"] == 1
        assert tuple(node.store.keys()) == ("a",)

    def test_fault_plan_drives_outages_deterministically(self):
        plan = FaultPlan(
            faults=(TransientOutages(rate=1.0, mean_outage_steps=3),)
        )
        a = StorageNode("n0", seed=7, fault_plan=plan)
        b = StorageNode("n0", seed=7, fault_plan=plan)
        trace_a = [a.step() for _ in range(50)]
        trace_b = [b.step() for _ in range(50)]
        assert trace_a == trace_b
        assert a.outages_drawn > 0
        assert not all(trace_a)  # rate=1.0 must actually go dark

    def test_non_transient_fault_specs_are_ignored(self):
        # Block-level faults belong to the device layer; a node keeps
        # only the availability specs of a mixed plan.
        plan = FaultPlan(faults=())
        node = StorageNode("n0", fault_plan=plan)
        assert all(node.step() for _ in range(20))

    def test_rejects_empty_node_id(self):
        with pytest.raises(ValueError):
            StorageNode("")


TRACE = {"trace_id": "ab" * 8, "span_id": "cd" * 8}


async def traced_exchange(node, request):
    """One request carrying :data:`TRACE` through a served node; the
    raw reply frame."""
    server = await start_storage_node(node, port=0)
    try:
        host, port = server.sockets[0].getsockname()[:2]
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(encode_request(request, request_id=1, trace=TRACE))
        await writer.drain()
        reply = await read_frame(reader)
        writer.close()
        await writer.wait_closed()
    finally:
        server.close()
        await server.wait_closed()
    return reply


class TestStorageNodeServer:
    def test_traced_request_span_stays_in_the_process(self):
        tracer = Tracer(seed=1)
        with trace_capture(tracer):
            frame = asyncio.run(
                traced_exchange(
                    StorageNode("n0", seed=3),
                    BlockPutRequest.of({"k": b"x"}),
                )
            )
        assert reply_dict(frame)["ok"] is True
        assert frame[1] == 0  # the reply's flags: no span rides in it
        (span,) = tracer.records
        # The span parents under the caller's context, in the caller's
        # trace, with an id seeded by that context and the node.
        assert span["name"] == "node.block.put"
        assert span["trace_id"] == TRACE["trace_id"]
        assert span["parent_id"] == TRACE["span_id"]
        seed = context_seed(TRACE, "cluster.node", "n0")
        assert span["span_id"] == Tracer(seed=seed).new_id()
        assert "error" not in span["attrs"]

    def test_failed_request_keeps_its_span_and_error(self):
        node = StorageNode("n0")
        node.interrupt()
        tracer = Tracer(seed=1)
        with trace_capture(tracer):
            frame = asyncio.run(
                traced_exchange(node, BlockFetchRequest(keys=("k",)))
            )
        assert reply_dict(frame)["code"] == "unavailable"
        (span,) = tracer.records
        assert span["name"] == "node.block.fetch"
        assert span["attrs"]["error"] == "TransientUnavailableError"

    def test_failed_call_tags_the_client_span_too(self):
        async def fetch():
            node = StorageNode("n0")
            node.interrupt()
            server = await start_storage_node(node, port=0)
            host, port = server.sockets[0].getsockname()[:2]

            def call():
                with ClusterClient(host, port) as client:
                    with pytest.raises(TransientUnavailableError):
                        client.block_fetch(("k",))

            try:
                await asyncio.to_thread(call)
            finally:
                server.close()
                await server.wait_closed()

        tracer = Tracer(seed=1)
        with trace_capture(tracer):
            asyncio.run(fetch())
        by_name = {r["name"]: r for r in tracer.records}
        client = by_name["client.block.fetch"]
        node = by_name["node.block.fetch"]
        assert client["attrs"]["error"] == "TransientUnavailableError"
        assert node["attrs"]["error"] == "TransientUnavailableError"
        assert node["parent_id"] == client["span_id"]

    def test_untraced_process_mints_no_node_span(self, monkeypatch):
        def no_tracer(*args, **kwargs):
            raise AssertionError("an untraced node minted a span")

        monkeypatch.setattr(node_module, "Tracer", no_tracer)
        frame = asyncio.run(
            traced_exchange(StorageNode("n0"), PingRequest())
        )
        assert reply_dict(frame)["kind"] == "pong"
        assert frame[1] == 0


class TestMetricsPlane:
    def test_metrics_snapshot_dispatch(self):
        node = StorageNode("n7")
        served(node, BlockPutRequest.of({"a/0/0": b"xyzw"}))
        response = served(node, MetricsSnapshotRequest())
        assert isinstance(response, MetricsSnapshotResponse)
        assert response.role == "node"
        assert response.source == "n7"
        gauges = response.snapshot["gauges"]
        assert gauges["node.available"] == 1.0
        assert gauges["node.blocks"] == 1.0
        assert gauges["node.bytes_stored"] == 4.0
        assert response.snapshot["counters"]["node.puts"] == 1

    def test_metrics_served_from_the_control_plane(self):
        # A transiently-unavailable node refuses data-plane ops but
        # still reports itself — that is how the scraper tells a
        # dark process from a merely interrupted device.
        node = StorageNode("n8")
        node.interrupt()
        with pytest.raises(TransientUnavailableError):
            served(node, BlockFetchRequest(keys=("a/0/0",)))
        response = served(node, MetricsSnapshotRequest())
        assert response.snapshot["gauges"]["node.available"] == 0.0
