"""RepairScheduler: priority ordering, budgets, read preemption."""

import asyncio
import time

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator, StorageNode, start_storage_node
from repro.cluster import scheduler as scheduler_mod
from repro.graphs import tornado_catalog_graph
from repro.storage.blockstore import block_key


def run(coro):
    return asyncio.run(coro)


def payload_bytes(n, seed=0):
    return np.random.default_rng(seed).bytes(n)


class Cluster:
    def __init__(self, coordinator, nodes, servers):
        self.coordinator = coordinator
        self.nodes = nodes
        self.servers = servers

    @classmethod
    async def start(cls, members=3, block_size=64, **kwargs):
        coordinator = ClusterCoordinator(
            tornado_catalog_graph(3), block_size=block_size, **kwargs
        )
        nodes, servers = {}, {}
        for i in range(members):
            node_id = f"node-{i}"
            node = StorageNode(node_id, seed=i)
            server = await start_storage_node(node, port=0)
            host, port = server.sockets[0].getsockname()[:2]
            await coordinator.register(node_id, host, port)
            nodes[node_id], servers[node_id] = node, server
        return cls(coordinator, nodes, servers)

    def delete_blocks(self, name, count, stripe_offset=0):
        """Erase the first ``count`` blocks of the object's stripe."""
        record = self.coordinator.manifests[name].stripes[stripe_offset]
        deleted = 0
        for node in range(self.coordinator.graph.num_nodes):
            if deleted == count:
                break
            key = block_key(name, record.index, node)
            for storage in self.nodes.values():
                if storage.store.delete(key):
                    deleted += 1
                    break
        assert deleted == count
        return record.index

    async def close(self):
        for server in self.servers.values():
            server.close()


class TestPriorityOrdering:
    def test_most_at_risk_stripe_queues_first(self):
        async def check():
            cluster = await Cluster.start()
            coord = cluster.coordinator
            await coord.put("mild", payload_bytes(1000, seed=1))
            await coord.put("risky", payload_bytes(1000, seed=2))
            cluster.delete_blocks("mild", 1)
            cluster.delete_blocks("risky", 8)
            queued = await coord.scheduler.scan()
            assert queued == 2
            status = coord.scheduler.status()
            order = [e["object"] for e in status["next"]]
            assert order == ["risky", "mild"]
            # Margins reflect the missing-block counts.
            margins = {
                e["object"]: e["margin"] for e in status["next"]
            }
            assert margins["risky"] == margins["mild"] - 7
            await cluster.close()

        run(check())

    def test_scan_is_idempotent_and_healthy_scan_queues_nothing(self):
        async def check():
            cluster = await Cluster.start()
            coord = cluster.coordinator
            await coord.put("obj", payload_bytes(1000, seed=3))
            assert await coord.scheduler.scan() == 0
            cluster.delete_blocks("obj", 2)
            assert await coord.scheduler.scan() == 1
            # Already queued: a second scan does not double-queue.
            assert await coord.scheduler.scan() == 0
            assert coord.scheduler.queue_depth == 1
            await cluster.close()

        run(check())


class TestBudget:
    def test_cycle_defers_work_beyond_the_byte_budget(self):
        async def check():
            # est_bytes per stripe = missing * block_size = 4 * 64.
            cluster = await Cluster.start(
                repair_bytes_per_cycle=300
            )
            coord = cluster.coordinator
            await coord.put("a", payload_bytes(1000, seed=4))
            await coord.put("b", payload_bytes(1000, seed=5))
            cluster.delete_blocks("a", 4)
            cluster.delete_blocks("b", 4)
            await coord.scheduler.scan()
            first = await coord.scheduler.run_cycle()
            # One stripe fits (256 <= 300); the second would overrun.
            assert first["repaired_stripes"] == 1
            assert first["deferred_stripes"] == 1
            assert first["spent_bytes"] == 256
            assert coord.scheduler.queue_depth == 1
            second = await coord.scheduler.run_cycle()
            assert second["repaired_stripes"] == 1
            assert second["deferred_stripes"] == 0
            assert coord.scheduler.queue_depth == 0
            await cluster.close()

        run(check())

    def test_oversized_stripe_still_repairs_for_progress(self):
        async def check():
            cluster = await Cluster.start(repair_bytes_per_cycle=1)
            coord = cluster.coordinator
            await coord.put("obj", payload_bytes(1000, seed=6))
            cluster.delete_blocks("obj", 4)
            summary = await coord.repair()
            assert summary["rebuilt_blocks"] == 4
            assert coord.scheduler.queue_depth == 0
            got = await coord.get("obj", want_payload=True)
            assert got.payload == payload_bytes(1000, seed=6)
            await cluster.close()

        run(check())

    def test_drain_totals_match_the_monolithic_contract(self):
        async def check():
            cluster = await Cluster.start()
            coord = cluster.coordinator
            payload = payload_bytes(2000, seed=7)
            await coord.put("obj", payload)
            cluster.delete_blocks("obj", 3)
            summary = await coord.repair()
            for key in (
                "moved_blocks",
                "rebuilt_blocks",
                "unrepairable_blocks",
                "repaired_stripes",
                "spent_bytes",
                "cycles",
            ):
                assert key in summary
            assert summary["rebuilt_blocks"] == 3
            assert summary["unrepairable_blocks"] == 0
            assert coord.repair_bytes == summary["spent_bytes"]
            await cluster.close()

        run(check())


class TestReadInterleaving:
    def test_foreground_get_is_not_stalled_by_an_active_rebuild(
        self, monkeypatch
    ):
        # One stripe per wave, so the pass is several waves.
        monkeypatch.setattr(scheduler_mod, "_WAVE_BYTES", 1)

        async def check():
            cluster = await Cluster.start()
            coord = cluster.coordinator
            payload = payload_bytes(9000, seed=8)  # three stripes
            await coord.put("obj", payload)
            stripes = len(coord.manifests["obj"].stripes)
            assert stripes == 3
            for offset in range(stripes):
                cluster.delete_blocks("obj", 2, stripe_offset=offset)

            # Make each wave's placement slow enough that a whole-pass
            # lock would be felt by a concurrent read.
            real = coord._put_blocks
            slowed = []

            async def slow_put(*args, **kwargs):
                slowed.append(args[0])
                await asyncio.sleep(0.05)
                return await real(*args, **kwargs)

            coord._put_blocks = slow_put
            drain = asyncio.create_task(coord.repair())
            await asyncio.sleep(0.01)  # let the rebuild start
            t0 = time.perf_counter()
            got = await coord.get("obj", want_payload=True)
            read_latency = time.perf_counter() - t0
            assert got.payload == payload
            assert not drain.done()  # the rebuild was still running
            summary = await drain
            assert summary["rebuilt_blocks"] == 2 * stripes
            assert len(slowed) >= stripes  # every wave placed through it
            # Regression bound: the read waits for at most the wave
            # holding its stripe, never the whole pass (which takes
            # >= stripes * 50ms).
            assert read_latency < 0.05 * stripes
            await cluster.close()

        run(check())

    def test_repair_waits_for_inflight_reads(self):
        async def check():
            cluster = await Cluster.start()
            coord = cluster.coordinator
            await coord.put("obj", payload_bytes(500, seed=9))
            cluster.delete_blocks("obj", 1)
            await coord.scheduler.scan()
            coord.reads_inflight = 1

            async def release():
                await asyncio.sleep(0.02)
                coord.reads_inflight = 0

            releaser = asyncio.create_task(release())
            cycle = await coord.scheduler.run_cycle()
            await releaser
            assert cycle["repaired_stripes"] == 1
            assert coord.scheduler.preemptions >= 1
            await cluster.close()

        run(check())


class TestRepairStatusOp:
    def test_repair_modes_and_status_introspection(self):
        async def check():
            cluster = await Cluster.start()
            coord = cluster.coordinator
            await coord.put("obj", payload_bytes(800, seed=10))
            cluster.delete_blocks("obj", 2)
            scan = await coord.repair(mode="scan")
            assert scan["queued"] == 1 and scan["queue_depth"] == 1
            status = coord.repair_status()
            assert status["queue_depth"] == 1
            assert status["next"][0]["object"] == "obj"
            assert status["next"][0]["est_bytes"] == 128
            cycle = await coord.repair(mode="cycle")
            assert cycle["repaired_stripes"] == 1
            status = coord.repair_status()
            assert status["queue_depth"] == 0
            assert status["scans"] >= 1 and status["cycles"] >= 1
            assert status["totals"]["rebuilt_blocks"] == 2
            await cluster.close()

        run(check())

    # RepairRequest and FetchStripeRequest reject these on the wire; the
    # coordinator's own methods must too, before any probe or fetch.
    @staticmethod
    def refused_before_any_rpc(call, match):
        async def check():
            cluster = await Cluster.start()
            coord = cluster.coordinator
            await coord.put("obj", payload_bytes(4000, seed=11))
            cluster.delete_blocks("obj", 2)
            sent = []
            rpcs = coord._rpcs

            async def recording(bursts):
                sent.extend(bursts)
                return await rpcs(bursts)

            coord._rpcs = recording
            sched = coord.scheduler
            before = (sched.scans, sched.cycles)
            with pytest.raises(ValueError, match=match):
                await call(coord)
            assert sent == []
            assert (sched.scans, sched.cycles) == before
            assert coord.repair_bytes == 0
            # The valid calls still work.
            assert (await coord.fetch_stripe_raw("obj", 1)).seq == 1
            assert (await coord.repair(mode="drain"))["rebuilt_blocks"] == 2
            await cluster.close()

        run(check())

    def test_repair_refuses_an_unknown_mode(self):
        self.refused_before_any_rpc(
            lambda coord: coord.repair(mode="bogus"), "repair mode"
        )

    def test_fetch_stripe_raw_refuses_a_negative_ordinal(self):
        self.refused_before_any_rpc(
            lambda coord: coord.fetch_stripe_raw("obj", -1), "seq must be >= 0"
        )
