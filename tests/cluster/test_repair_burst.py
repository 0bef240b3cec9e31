"""Repair at pipeline depth: the placement burst, the place -> journal ->
delete-strays order, and reads that race a re-shard."""

import asyncio
import hashlib
import json
import time

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator, StorageNode, start_storage_node
from repro.graphs import tornado_catalog_graph
from repro.serve.protocol import (
    BlockDeleteRequest,
    BlockFetchRequest,
    BlockPutRequest,
)

BLOCK = 64
STRIPE = 48 * BLOCK  # payload bytes of one catalog-graph-3 stripe


def run(coro):
    return asyncio.run(coro)


def payload_bytes(n, seed=0):
    return np.random.default_rng(seed).bytes(n)


class Cluster:
    """An in-process coordinator plus N served storage nodes."""

    def __init__(self, coordinator):
        self.coordinator = coordinator
        self.nodes = {}
        self.servers = {}

    @classmethod
    async def start(cls, members, **kwargs):
        self = cls(
            ClusterCoordinator(
                tornado_catalog_graph(3), block_size=BLOCK, **kwargs
            )
        )
        for i in range(members):
            await self.join(StorageNode(f"node-{i}", seed=i))
        return self

    async def serve(self, node):
        server = await start_storage_node(node, port=0)
        self.nodes[node.node_id], self.servers[node.node_id] = node, server
        return server.sockets[0].getsockname()[:2]

    async def join(self, node):
        host, port = await self.serve(node)
        return await self.coordinator.register(node.node_id, host, port)

    def kill(self, node_id):
        """SIGKILL analogue: listener gone, pooled connection aborted."""
        self.servers[node_id].close()
        self.coordinator.nodes[node_id].drop()

    def held(self):
        return {
            nid: set(node.store.keys()) for nid, node in self.nodes.items()
        }

    async def put_objects(self, count, size=STRIPE):
        objects = {
            f"obj-{i}": payload_bytes(size, seed=i) for i in range(count)
        }
        for name, payload in objects.items():
            info = await self.coordinator.put(name, payload)
            assert info["failed_blocks"] == 0
        return objects

    async def close(self):
        if self.coordinator.wal is not None:
            self.coordinator.wal.close()
        for server in self.servers.values():
            server.close()


async def assert_reads(coordinator, objects):
    for name, payload in objects.items():
        got = await coordinator.get(name, want_payload=True)
        assert got.payload == payload, name


class TestReadsRacingAReshard:
    def test_reader_parked_on_the_stripe_lock_sees_the_flipped_record(self):
        # The reader captures its stripe records, then waits on a stripe
        # lock while the repair wave moves the blocks, flips the records
        # and deletes the old copies.  It must fetch from the placement
        # in force once it holds the lock, not the one it captured.
        async def check():
            cluster = await Cluster.start(4)
            coord = cluster.coordinator
            objects = await cluster.put_objects(1, size=2 * STRIPE)
            real = coord._put_blocks
            reads = []

            async def racing(node_id, requests):
                # The wave holds both stripe locks here, unflipped.
                if not reads:
                    reads.append(
                        asyncio.create_task(
                            coord.get("obj-0", want_payload=True)
                        )
                    )
                    await asyncio.sleep(0.01)  # reader parks on a lock
                    assert not reads[0].done()
                return await real(node_id, requests)

            coord._put_blocks = racing
            summary = await coord.deregister("node-1")
            assert summary["moved_blocks"] == 2 * 48
            assert len(reads) == 1
            got = await reads[0]
            assert got.payload == objects["obj-0"]
            await cluster.close()

        run(check())

    def test_paced_readers_during_a_leave_never_see_data_loss(self):
        async def check():
            cluster = await Cluster.start(4)
            coord = cluster.coordinator
            objects = await cluster.put_objects(32)
            names = list(objects)
            failures, served = [], 0

            async def reader(offset):
                nonlocal served
                i = offset
                while not leave.done():
                    name = names[i % len(names)]
                    i += 2
                    try:
                        got = await coord.get(name, want_payload=True)
                        assert got.payload == objects[name]
                        served += 1
                    except Exception as exc:  # collected, asserted below
                        failures.append((name, repr(exc)))
                    await asyncio.sleep(0.002)

            leave = asyncio.create_task(coord.deregister("node-1"))
            await asyncio.gather(reader(0), reader(1))
            summary = await leave
            assert summary["unrepairable_blocks"] == 0
            assert served > 0
            assert failures == []
            await cluster.close()

        run(check())


class TestPlaceJournalDelete:
    def test_crash_between_placement_and_journal_loses_nothing(
        self, tmp_path
    ):
        async def check():
            cluster = await Cluster.start(4, wal_dir=tmp_path)
            coord = cluster.coordinator
            objects = await cluster.put_objects(3)
            before = cluster.held()
            append = coord.wal.append

            def crash_on_repair(*records):
                if any(record["type"] == "repair" for record in records):
                    raise OSError("simulated crash before the journal")
                return append(*records)

            coord.wal.append = crash_on_repair
            with pytest.raises(OSError, match="simulated crash"):
                await coord.deregister("node-1")
            # Blocks were placed, none of the old copies is gone.
            after = cluster.held()
            assert any(after[nid] > before[nid] for nid in before)
            for nid in before:
                assert before[nid] <= after[nid], nid
            coord.wal.close()
            recovered = ClusterCoordinator(
                tornado_catalog_graph(3),
                block_size=BLOCK,
                wal_dir=tmp_path,
                recover=True,
            )
            assert recovered.ring.members == ("node-0", "node-2", "node-3")
            await assert_reads(recovered, objects)
            # The next repair finishes the job the crash interrupted.
            summary = await recovered.repair()
            assert summary["unrepairable_blocks"] == 0
            holders = await recovered._inventory()
            assert len(holders) == 3 * 96
            assert all(len(v) == 1 for v in holders.values())
            await assert_reads(recovered, objects)
            recovered.wal.close()
            await cluster.close()

        run(check())


class TestPlacementBurst:
    def test_target_dying_mid_burst_leaves_reads_on_the_old_placement(self):
        async def check():
            cluster = await Cluster.start(3)
            coord = cluster.coordinator
            objects = await cluster.put_objects(3)
            placements = {
                name: coord.manifests[name].stripes[0].placement
                for name in objects
            }
            before = cluster.held()
            joiner = StorageNode("node-3", seed=3)
            real = coord._put_blocks
            batches = []

            async def dying(node_id, requests):
                if node_id == "node-3":
                    batches.extend(map(len, requests))
                    if len(batches) == 1:
                        # Dies with its first batch written, unanswered.
                        asyncio.get_running_loop().call_soon(
                            cluster.kill, "node-3"
                        )
                return await real(node_id, requests)

            coord._put_blocks = dying
            summary = await cluster.join(joiner)
            coord._put_blocks = real
            # Re-striding onto four members moves most of a stripe.
            # The three stripes are one wave, so the joiner's share is
            # one batch; it is not acknowledged, so no record flips and
            # every old copy stays; what was headed for the other
            # members is placed.
            to_move = sum(
                old != new
                for name, placement in placements.items()
                for old, new in zip(
                    placement,
                    coord._stripe_placement(
                        name, coord.manifests[name].stripes[0].index
                    ),
                )
            )
            assert batches == [3 * 24]
            assert summary["moved_blocks"] == to_move - sum(batches)
            assert summary["unrepairable_blocks"] == 0
            for name, placement in placements.items():
                assert (
                    coord.manifests[name].stripes[0].placement == placement
                )
            after = cluster.held()
            assert all(before[nid] <= after[nid] for nid in before)
            await assert_reads(coord, objects)
            # The joiner comes back with what it had stored; the next
            # repair pass places the rest and flips every record.
            again = await cluster.join(joiner)
            assert again["unrepairable_blocks"] == 0
            # The batch on the wire at the kill may have landed
            # unacknowledged; those blocks need no second move.
            assert again["moved_blocks"] in (sum(batches), 0)
            holders = await coord._inventory()
            assert len(holders) == 3 * 96
            assert all(len(v) == 1 for v in holders.values())
            for name in objects:
                (record,) = coord.manifests[name].stripes
                assert record.placement == coord._stripe_placement(
                    name, record.index
                )
                assert "node-3" in record.placement
            await assert_reads(coord, objects)
            await cluster.close()

        run(check())

    def test_seeded_kill_repair_rejoin_is_identical_to_the_sequential_pass(
        self,
    ):
        # Pinned from the parent commit (sequential placement, decode ->
        # encode_blocks -> copy-back): the burst and the lost-row replay
        # move the same blocks to the same nodes and leave the same
        # canonical state, listening ports aside.
        async def check():
            cluster = await Cluster.start(3)
            coord = cluster.coordinator
            objects = {
                "alpha": payload_bytes(5000, seed=1),
                "beta": payload_bytes(3000, seed=2),
            }
            for name, payload in objects.items():
                await coord.put(name, payload)
            cluster.kill("node-0")
            left = await coord.deregister("node-0")
            joined = await cluster.join(StorageNode("node-0", seed=9))
            await assert_reads(coord, objects)
            state = coord.state_dict()
            state["members"] = [
                [nid, host, 0] for nid, host, _ in state["members"]
            ]
            digest = hashlib.sha256(
                json.dumps(
                    state, sort_keys=True, separators=(",", ":")
                ).encode()
            ).hexdigest()
            await cluster.close()
            return left, joined, coord.repair_bytes_by_node, digest

        left, joined, by_node, digest = run(check())
        assert (left["moved_blocks"], left["rebuilt_blocks"]) == (96, 96)
        assert (joined["moved_blocks"], joined["rebuilt_blocks"]) == (192, 0)
        assert by_node == {"node-1": 9216, "node-2": 9216, "node-0": 6144}
        assert digest == (
            "f4be4908d0e9051e6b0b66c63dbc2dd1287f8a7519c79ab223fb1b332b091414"
        )


class TestBatchesPerMember:
    def test_a_leave_costs_one_put_and_one_delete_per_member_per_wave(
        self,
    ):
        async def check():
            cluster = await Cluster.start(4)
            coord = cluster.coordinator
            sent, bursts = [], []
            rpc, rpc_many = coord._rpc, coord._rpc_many
            waves = []
            repair = coord._repair_stripes

            async def recording(link, request):
                sent.append(request)
                return await rpc(link, request)

            async def recording_many(link, requests):
                sent.extend(requests)
                bursts.append(len(requests))
                return await rpc_many(link, requests)

            async def counting(stripes, holders):
                waves.append(len(stripes))
                return await repair(stripes, holders)

            def batch_sizes(kind, field):
                return [
                    len(getattr(r, field)) for r in sent if type(r) is kind
                ]

            coord._rpc, coord._rpc_many = recording, recording_many
            await coord.put("solo", payload_bytes(STRIPE))
            # The benchmark pins a put at one RPC per block; they leave
            # as one burst per member.
            assert batch_sizes(BlockPutRequest, "blocks") == [1] * 96
            assert bursts == [24] * 4
            await cluster.put_objects(3, size=2 * STRIPE)
            stripes = 1 + 3 * 2
            before = cluster.held()
            sent.clear()
            coord._repair_stripes = counting
            summary = await coord.deregister("node-1")
            coord._rpc, coord._rpc_many = rpc, rpc_many
            assert summary["repaired_stripes"] == stripes
            assert waves == [stripes]  # 7 x 96 x 64 B is one wave
            puts = batch_sizes(BlockPutRequest, "blocks")
            deletes = batch_sizes(BlockDeleteRequest, "keys")
            fetches = batch_sizes(BlockFetchRequest, "keys")
            live = len(coord.ring.members)
            assert 0 < len(puts) <= live * len(waves)
            assert 0 < len(deletes) <= live * len(waves)
            assert 0 < len(fetches) <= live * len(waves)
            assert sum(puts) == (
                summary["moved_blocks"] + summary["rebuilt_blocks"]
            )
            after = cluster.held()
            strays = sum(
                len(before[nid] - after[nid]) for nid in coord.ring.members
            )
            # Every moved block left one stray copy behind.
            assert sum(deletes) == strays == summary["moved_blocks"]
            await cluster.close()

        run(check())


class TestScanFanOut:
    def test_scan_costs_its_slowest_member_not_the_sum(self):
        async def check():
            delay = 0.2
            cluster = await Cluster.start(4)
            coord = cluster.coordinator
            await cluster.put_objects(1)
            for node in cluster.nodes.values():
                node.slow_seconds = delay
            started = time.perf_counter()
            assert await coord.scheduler.scan() == 0
            wall = time.perf_counter() - started
            # One probe and one inventory, each a single fan-out: two
            # delays.  Member by member it would be eight.
            assert delay < wall < 5 * delay
            await cluster.close()

        run(check())
