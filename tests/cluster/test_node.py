"""Storage-node logic: block store, availability process, ship-back."""

import asyncio

import pytest

from repro.cluster import StorageNode, start_storage_node
from repro.resilience import FaultPlan
from repro.resilience.faults import TransientOutages
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

from ..serve.wire import read_reply


def served(node, request):
    """One request through the node's endpoint (control plane = the
    shared archive-service rows; the rest lands in ``node.handle``)."""
    return node.endpoint()(request, Envelope())


class TestStorageNodeLogic:
    def test_block_ops_round_trip(self):
        node = StorageNode("n0")
        stored = node.handle(BlockPutRequest(blocks={"a/0/0": b"xy"}))
        assert stored.info == {"stored": 1}
        fetched = node.handle(
            BlockFetchRequest(keys=("a/0/0", "a/0/1"))
        )
        assert fetched.blocks == {"a/0/0": b"xy"}
        assert fetched.missing == ("a/0/1",)
        listed = node.handle(BlockListRequest(prefix="a/"))
        assert listed.keys == ("a/0/0",)

    def test_interrupt_gates_data_plane_not_control_plane(self):
        node = StorageNode("n0")
        node.handle(BlockPutRequest(blocks={"k": b"v"}))
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
        assert fetched.blocks == {"k": b"v"}

    def test_batch_put_during_an_outage_stores_nothing(self):
        node = StorageNode("n0")
        node.handle(BlockPutRequest(blocks={"old": b"o"}))
        node.interrupt()
        batch = {f"k{i}": bytes([i]) * 4 for i in range(5)}
        with pytest.raises(TransientUnavailableError):
            node.handle(BlockPutRequest(blocks={"old": b"new", **batch}))
        node.restore()
        # The availability check precedes the first write.
        assert tuple(node.store.keys()) == ("old",)
        assert node.store.get("old") == b"o"
        assert node.store.stats()["puts"] == 1
        assert node.handle(BlockPutRequest(blocks=batch)).info == {
            "stored": 5
        }
        fetched = node.handle(BlockFetchRequest(keys=tuple(batch)))
        assert fetched.blocks == batch and fetched.missing == ()

    def test_batch_delete_counts_what_it_held_and_is_idempotent(self):
        node = StorageNode("n0")
        node.handle(BlockPutRequest(blocks={"a": b"1", "b": b"22", "c": b"3"}))
        doomed = BlockDeleteRequest(keys=("a", "b", "never-stored"))
        assert node.handle(doomed).info == {"deleted": 2}
        assert node.handle(doomed).info == {"deleted": 0}
        assert tuple(node.store.keys()) == ("c",)
        assert node.store.bytes_stored == 1

    def test_empty_batches_are_no_op_acks(self):
        node = StorageNode("n0")
        node.handle(BlockPutRequest(blocks={"a": b"1"}))
        assert node.handle(BlockPutRequest(blocks={})).info == {"stored": 0}
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


class TestStorageNodeServer:
    def test_trace_context_ships_spans_back(self):
        async def run():
            node = StorageNode("n0", seed=3)
            server = await start_storage_node(node, port=0)
            try:
                host, port = server.sockets[0].getsockname()[:2]
                reader, writer = await asyncio.open_connection(
                    host, port
                )
                writer.write(
                    encode_request(
                        BlockPutRequest(blocks={"k": b"x"}),
                        request_id=1,
                        trace={"trace_id": "ab" * 8, "span_id": "cd" * 8},
                    )
                )
                await writer.drain()
                reply = await read_reply(reader)
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
            return reply

        reply = asyncio.run(run())
        assert reply["ok"] is True
        spans = reply["spans"]
        assert len(spans) == 1
        # The shipped span parents under the caller's context, in the
        # caller's trace — that is what stitches the cluster-wide tree.
        assert spans[0]["name"] == "node.block.put"
        assert spans[0]["trace_id"] == "ab" * 8
        assert spans[0]["parent_id"] == "cd" * 8

    def test_untraced_request_ships_no_spans(self):
        async def run():
            node = StorageNode("n0")
            server = await start_storage_node(node, port=0)
            try:
                host, port = server.sockets[0].getsockname()[:2]
                reader, writer = await asyncio.open_connection(
                    host, port
                )
                writer.write(encode_request(PingRequest()))
                await writer.drain()
                reply = await read_reply(reader)
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
            return reply

        reply = asyncio.run(run())
        assert reply["ok"] is True
        assert "spans" not in reply


class TestMetricsPlane:
    def test_metrics_snapshot_dispatch(self):
        node = StorageNode("n7")
        served(node, BlockPutRequest(blocks={"a/0/0": b"xyzw"}))
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
