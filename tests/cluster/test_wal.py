"""Coordinator durability: WAL mechanics and crash recovery."""

import asyncio
import errno
import json
import os
import shutil

import numpy as np
import pytest

from repro.cluster import (
    ClusterCoordinator,
    CoordinatorWal,
    StorageNode,
    WalCorruptError,
    WalUnwritableError,
    start_storage_node,
)
from repro.graphs import tornado_catalog_graph


def run(coro):
    return asyncio.run(coro)


def payload_bytes(n, seed=0):
    return np.random.default_rng(seed).bytes(n)


class TestWalMechanics:
    def test_append_then_load_replays_in_order(self, tmp_path):
        wal = CoordinatorWal(tmp_path)
        for i in range(5):
            seq = wal.append({"type": "put", "name": f"o{i}"})
            assert seq == i + 1
        wal.close()
        state, records = CoordinatorWal(tmp_path).load()
        assert state is None
        assert [r["name"] for r in records] == [f"o{i}" for i in range(5)]
        assert [r["seq"] for r in records] == [1, 2, 3, 4, 5]

    def test_fresh_truncates_prior_state(self, tmp_path):
        wal = CoordinatorWal(tmp_path)
        wal.append({"type": "put", "name": "old"})
        wal.snapshot({"anything": 1})
        wal.close()
        wal = CoordinatorWal(tmp_path, fresh=True)
        state, records = wal.load()
        assert state is None and records == []
        assert wal.seq == 0

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        wal = CoordinatorWal(tmp_path)
        wal.append({"type": "put", "name": "kept"})
        wal.close()
        with open(tmp_path / "wal.jsonl", "ab") as fh:
            fh.write(b'{"seq": 2, "type": "put", "na')  # crash mid-write
        _, records = CoordinatorWal(tmp_path).load()
        assert [r["name"] for r in records] == ["kept"]

    def test_crc_failing_tail_is_dropped(self, tmp_path):
        wal = CoordinatorWal(tmp_path)
        wal.append({"type": "put", "name": "kept"})
        wal.close()
        with open(tmp_path / "wal.jsonl", "ab") as fh:
            fh.write(b'{"seq": 2, "type": "put", "crc": 12345}\n')
        _, records = CoordinatorWal(tmp_path).load()
        assert [r["name"] for r in records] == ["kept"]

    def test_mid_log_damage_raises_instead_of_guessing(self, tmp_path):
        wal = CoordinatorWal(tmp_path)
        wal.append({"type": "put", "name": "a"})
        wal.append({"type": "put", "name": "b"})
        wal.close()
        lines = (tmp_path / "wal.jsonl").read_bytes().splitlines()
        lines[0] = b'{"seq": 1, "garbage": true}'
        (tmp_path / "wal.jsonl").write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(WalCorruptError):
            CoordinatorWal(tmp_path).load()

    def test_sequence_regression_is_corruption(self, tmp_path):
        wal = CoordinatorWal(tmp_path)
        wal.append({"type": "put", "name": "a"})
        wal.close()
        line = (tmp_path / "wal.jsonl").read_bytes()
        # Duplicate record 1 verbatim: same CRC, regressed sequence.
        (tmp_path / "wal.jsonl").write_bytes(line + line)
        with pytest.raises(WalCorruptError):
            CoordinatorWal(tmp_path).load()

    def test_snapshot_truncates_and_seq_stays_monotonic(self, tmp_path):
        wal = CoordinatorWal(tmp_path)
        wal.append({"type": "put", "name": "a"})
        wal.append({"type": "put", "name": "b"})
        assert wal.snapshot({"x": 1}) == 2
        assert wal.records_since_snapshot == 0
        assert wal.append({"type": "put", "name": "c"}) == 3
        wal.close()
        state, records = CoordinatorWal(tmp_path).load()
        assert state == {"x": 1}
        assert [r["name"] for r in records] == ["c"]

    def test_stats_report_recovery_exposure(self, tmp_path):
        wal = CoordinatorWal(tmp_path)
        wal.append({"type": "put", "name": "a"})
        stats = wal.stats()
        assert stats["seq"] == 1
        assert stats["records_since_snapshot"] == 1
        assert stats["wal_bytes"] > 0
        assert stats["appends"] == 1 and stats["fsyncs"] == 1
        assert stats["last_snapshot_age_seconds"] is None
        wal.snapshot({"x": 1})
        stats = wal.stats()
        assert stats["records_since_snapshot"] == 0
        assert stats["snapshot_bytes"] > 0
        assert stats["last_snapshot_age_seconds"] is not None


def enospc(*_args):
    raise OSError(errno.ENOSPC, "No space left on device")


def fail_once(monkeypatch, name, fd, first=None):
    """``os.<name>`` on ``fd`` fails once (after calling ``first``)."""
    real = getattr(os, name)

    def patched(target, *args):
        if target == fd:
            monkeypatch.setattr(os, name, real)
            if first is not None:
                first(target, *args)
            enospc()
        return real(target, *args)

    monkeypatch.setattr(os, name, patched)


class TestFailedAppend:
    """An append that fails is not in the log: replay never sees it,
    and the appends after it land on a clean line boundary."""

    def test_failed_fsync_is_not_replayed(self, tmp_path, monkeypatch):
        wal = CoordinatorWal(tmp_path)
        wal.append({"type": "put", "name": "a"})
        fail_once(monkeypatch, "fsync", wal._fh.fileno())
        with pytest.raises(OSError, match="No space left"):
            wal.append({"type": "put", "name": "b"})
        assert wal.seq == 1
        assert wal.append({"type": "put", "name": "c"}) == 2
        wal.close()
        _, records = CoordinatorWal(tmp_path).load()
        assert [(r["seq"], r["name"]) for r in records] == [(1, "a"), (2, "c")]

    def test_partial_write_leaves_no_torn_line(self, tmp_path, monkeypatch):
        wal = CoordinatorWal(tmp_path)
        wal.append({"type": "put", "name": "a"})
        size = os.path.getsize(wal.wal_path)

        def half(fd, data):
            os.write(fd, bytes(data[: len(data) // 2]))

        # The first write lands half the line, the retry hits ENOSPC.
        fail_once(monkeypatch, "write", wal._fh.fileno(), first=half)
        with pytest.raises(OSError, match="No space left"):
            wal.append({"type": "put", "name": "b"})
        assert os.path.getsize(wal.wal_path) == size
        wal.append({"type": "put", "name": "c"})
        wal.close()
        _, records = CoordinatorWal(tmp_path).load()
        assert [r["name"] for r in records] == ["a", "c"]

    def test_failed_rollback_refuses_later_appends(
        self, tmp_path, monkeypatch
    ):
        wal = CoordinatorWal(tmp_path)
        wal.append({"type": "put", "name": "a"})
        fail_once(monkeypatch, "fsync", wal._fh.fileno())
        fail_once(monkeypatch, "ftruncate", wal._fh.fileno())
        with pytest.raises(OSError, match="No space left"):
            wal.append({"type": "put", "name": "b"})
        with pytest.raises(WalUnwritableError, match="rolled back"):
            wal.append({"type": "put", "name": "c"})
        assert wal.seq == 1
        wal.close()
        # The record whose fsync failed could not be cut off, so it is
        # the log's last line; nothing was written after it.
        _, records = CoordinatorWal(tmp_path).load()
        assert [r["name"] for r in records] == ["a", "b"]

    def test_coordinator_put_whose_append_fails(self, tmp_path, monkeypatch):
        async def check():
            cluster = await WaledCluster.start(tmp_path)
            coord = cluster.coordinator
            await coord.put("kept", payload_bytes(1000, seed=1))
            fail_once(monkeypatch, "fsync", coord.wal._fh.fileno())
            with pytest.raises(OSError, match="No space left"):
                await coord.put("lost", payload_bytes(1000, seed=2))
            await coord.put("after", payload_bytes(1000, seed=3))
            digest = coord.state_sha256()
            await cluster.close()
            recovered = ClusterCoordinator(
                tornado_catalog_graph(3),
                block_size=64,
                wal_dir=tmp_path,
                recover=True,
            )
            assert set(recovered.manifests) == {"kept", "after"}
            assert recovered.state_sha256() == digest
            recovered.wal.close()

        run(check())


class WaledCluster:
    """In-process cluster whose coordinator journals to a WAL dir."""

    def __init__(self, coordinator, nodes, servers):
        self.coordinator = coordinator
        self.nodes = nodes
        self.servers = servers

    @classmethod
    async def start(cls, wal_dir, members=3, **kwargs):
        coordinator = ClusterCoordinator(
            tornado_catalog_graph(3),
            block_size=64,
            wal_dir=wal_dir,
            **kwargs,
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

    async def kill(self, node_id):
        self.servers[node_id].close()
        await self.servers[node_id].wait_closed()
        self.coordinator.nodes[node_id].drop()

    async def close(self):
        if self.coordinator.wal is not None:
            self.coordinator.wal.close()
        for server in self.servers.values():
            server.close()


class TestCoordinatorRecovery:
    def test_recovery_reconstructs_byte_identical_state(self, tmp_path):
        async def check():
            cluster = await WaledCluster.start(tmp_path)
            coord = cluster.coordinator
            await coord.put("alpha", payload_bytes(5000, seed=1))
            await coord.put("beta", payload_bytes(3000, seed=2))
            await cluster.kill("node-0")
            await coord.deregister("node-0")
            digest = coord.state_sha256()
            state = coord.state_dict()
            await cluster.close()
            # "Crash": the coordinator object is simply gone.  A new
            # one recovers from the same directory.
            recovered = ClusterCoordinator(
                tornado_catalog_graph(3),
                block_size=64,
                wal_dir=tmp_path,
                recover=True,
            )
            assert recovered.state_sha256() == digest
            assert recovered.state_dict() == state
            assert recovered.repair_bytes == coord.repair_bytes
            assert (
                recovered.repair_bytes_by_node
                == coord.repair_bytes_by_node
            )
            recovered.wal.close()

        run(check())

    def test_recovered_coordinator_serves_reads(self, tmp_path):
        async def check():
            cluster = await WaledCluster.start(tmp_path)
            coord = cluster.coordinator
            payload = payload_bytes(4000, seed=3)
            await coord.put("obj", payload)
            coord.wal.close()
            recovered = ClusterCoordinator(
                tornado_catalog_graph(3),
                block_size=64,
                wal_dir=tmp_path,
                recover=True,
            )
            got = await recovered.get("obj", want_payload=True)
            assert got.payload == payload
            recovered.wal.close()
            for server in cluster.servers.values():
                server.close()

        run(check())

    def test_recovery_from_snapshot_plus_tail(self, tmp_path):
        async def check():
            cluster = await WaledCluster.start(tmp_path)
            coord = cluster.coordinator
            await coord.put("before", payload_bytes(1000, seed=4))
            coord.snapshot_now()
            await coord.put("after", payload_bytes(1000, seed=5))
            digest = coord.state_sha256()
            await cluster.close()
            recovered = ClusterCoordinator(
                tornado_catalog_graph(3),
                block_size=64,
                wal_dir=tmp_path,
                recover=True,
            )
            assert recovered.state_sha256() == digest
            assert set(recovered.manifests) == {"before", "after"}
            recovered.wal.close()

        run(check())

    def test_auto_snapshot_after_n_records(self, tmp_path):
        async def check():
            cluster = await WaledCluster.start(
                tmp_path, snapshot_every=4
            )
            coord = cluster.coordinator
            for i in range(6):
                await coord.put(
                    f"o{i}", payload_bytes(200, seed=10 + i)
                )
            # 3 joins + 6 puts = 9 records: at least two snapshots
            # fired, and the journal tail stays short.
            assert coord.wal.records_since_snapshot < 4
            snapshot = json.loads(
                (tmp_path / "snapshot.json").read_text()
            )
            assert snapshot["seq"] > 0
            digest = coord.state_sha256()
            await cluster.close()
            recovered = ClusterCoordinator(
                tornado_catalog_graph(3),
                block_size=64,
                wal_dir=tmp_path,
                recover=True,
            )
            assert recovered.state_sha256() == digest
            recovered.wal.close()

        run(check())

    def test_torn_put_record_is_an_unacked_put(self, tmp_path):
        async def check():
            cluster = await WaledCluster.start(tmp_path)
            coord = cluster.coordinator
            await coord.put("acked", payload_bytes(1000, seed=6))
            await cluster.close()
            # Simulate a crash mid-append of a second put.
            with open(tmp_path / "wal.jsonl", "ab") as fh:
                fh.write(b'{"seq": 99, "type": "put", "name": "torn')
            recovered = ClusterCoordinator(
                tornado_catalog_graph(3),
                block_size=64,
                wal_dir=tmp_path,
                recover=True,
            )
            assert set(recovered.manifests) == {"acked"}
            recovered.wal.close()

        run(check())

    def test_status_surfaces_wal_and_state_digest(self, tmp_path):
        async def check():
            cluster = await WaledCluster.start(tmp_path)
            coord = cluster.coordinator
            await coord.put("obj", payload_bytes(500, seed=7))
            status = await coord.status()
            assert status["wal"]["seq"] == coord.wal.seq
            assert status["wal"]["records_since_snapshot"] > 0
            assert status["state_sha256"] == coord.state_sha256()
            await cluster.close()

        run(check())

    def test_wal_less_coordinator_reports_none_and_rejects_snapshot(
        self,
    ):
        coord = ClusterCoordinator(
            tornado_catalog_graph(3), block_size=64
        )
        with pytest.raises(ValueError):
            coord.snapshot_now()


def fail_next_append(wal):
    """The disk fills up for exactly one append."""
    real = wal.append

    def append(*records):
        wal.append = real
        raise OSError(errno.ENOSPC, "No space left on device")

    wal.append = append


class TestAppendFirst:
    """A failed append fails the operation and leaves memory where the
    log is: the state a restart would rebuild."""

    @staticmethod
    async def assert_untouched_by(tmp_path, operation, members=3):
        cluster = await WaledCluster.start(tmp_path, members=members)
        coord = cluster.coordinator
        payload = payload_bytes(4000, seed=1)
        await coord.put("kept", payload)
        before = coord.state_dict()
        fail_next_append(coord.wal)
        with pytest.raises(OSError, match="No space left"):
            await operation(cluster)
        assert coord.state_dict() == before
        coord.wal.close()
        recovered = ClusterCoordinator(
            tornado_catalog_graph(3),
            block_size=64,
            wal_dir=tmp_path,
            recover=True,
        )
        assert recovered.state_sha256() == coord.state_sha256()
        recovered.wal.close()
        await cluster.close()
        return coord

    def test_put(self, tmp_path):
        async def put(cluster):
            await cluster.coordinator.put("lost", payload_bytes(5000, seed=2))

        coord = run(self.assert_untouched_by(tmp_path, put))
        with pytest.raises(KeyError):
            run(coord.get("lost"))  # never acked, never readable

    def test_join(self, tmp_path):
        async def join(cluster):
            node = StorageNode("node-9", seed=9)
            server = await start_storage_node(node, port=0)
            cluster.servers["node-9"] = server
            host, port = server.sockets[0].getsockname()[:2]
            await cluster.coordinator.register("node-9", host, port)

        coord = run(self.assert_untouched_by(tmp_path, join))
        assert "node-9" not in coord.nodes

    def test_leave(self, tmp_path):
        async def leave(cluster):
            await cluster.coordinator.deregister("node-1")

        coord = run(self.assert_untouched_by(tmp_path, leave, members=4))
        assert coord.nodes["node-1"].alive

    def test_repair_commit(self, tmp_path):
        async def check():
            cluster = await WaledCluster.start(tmp_path, members=4)
            coord = cluster.coordinator
            await coord.put("kept", payload_bytes(4000, seed=1))
            await cluster.kill("node-0")
            real = coord.wal.append

            def append(*records):
                if any(record["type"] == "repair" for record in records):
                    coord.wal.append = real
                    raise OSError(errno.ENOSPC, "No space left on device")
                return real(*records)

            coord.wal.append = append
            with pytest.raises(OSError, match="No space left"):
                await coord.deregister("node-0")
            # The leave is in the log and in memory; the stripe whose
            # commit failed is in neither — no flip, no bytes booked.
            assert coord.ring.members == ("node-1", "node-2", "node-3")
            assert coord.repair_bytes == 0
            assert coord.repair_bytes_by_node == {}
            assert all(
                "node-0" in stripe.placement
                for stripe in coord.manifests["kept"].stripes
            )
            coord.wal.close()
            recovered = ClusterCoordinator(
                tornado_catalog_graph(3),
                block_size=64,
                wal_dir=tmp_path,
                recover=True,
            )
            assert recovered.state_sha256() == coord.state_sha256()
            recovered.wal.close()
            await cluster.close()

        run(check())


class TestRecoveryIsTheLivePath:
    def test_recovery_equals_live_after_every_committed_record(
        self, tmp_path
    ):
        graph = tornado_catalog_graph(3)
        live = tmp_path / "live"
        seen = []  # (type, partial repair) per committed record
        batches_seen = []  # (records, snapshotted) per committed batch

        async def check():
            coord = ClusterCoordinator(
                graph, block_size=64, wal_dir=live, snapshot_every=5
            )
            commit = coord._commit

            def commit_then_recover(*records):
                commit(*records)
                copy = tmp_path / f"copy-{len(batches_seen)}"
                shutil.copytree(live, copy)
                recovered = ClusterCoordinator(
                    graph, block_size=64, wal_dir=copy, recover=True
                )
                recovered.wal.close()
                assert recovered.state_dict() == coord.state_dict(), records
                assert recovered.state_sha256() == coord.state_sha256()
                batches_seen.append(
                    (len(records), coord.wal.records_since_snapshot == 0)
                )
                seen.extend(
                    (record["type"], record.get("placement", ()) is None)
                    for record in records
                )

            coord._commit = commit_then_recover
            cluster = WaledCluster(coord, {}, {})

            async def join(node_id, seed):
                node = StorageNode(node_id, seed=seed)
                server = await start_storage_node(node, port=0)
                cluster.nodes[node_id] = node
                cluster.servers[node_id] = server
                host, port = server.sockets[0].getsockname()[:2]
                return await coord.register(node_id, host, port)

            for i in range(3):
                await join(f"node-{i}", seed=i)
            objects = {
                "alpha": payload_bytes(5000, seed=1),  # two stripes
                "beta": payload_bytes(3000, seed=2),
                "gamma": payload_bytes(700, seed=3),
            }
            for name, payload in objects.items():
                await coord.put(name, payload)
            # kill-repair: a dead member leaves, its rows are rebuilt
            await cluster.kill("node-0")
            left = await coord.deregister("node-0")
            assert left["rebuilt_blocks"] > 0
            # partial repair: the joiner dies with its first batch on
            # the wire, so bytes land elsewhere but no record flips
            real = coord._put_blocks
            batches = []

            async def dying(node_id, requests):
                if node_id == "node-3":
                    batches.extend(map(len, requests))
                    if len(batches) == 1:
                        asyncio.get_running_loop().create_task(
                            cluster.kill("node-3")
                        )
                return await real(node_id, requests)

            coord._put_blocks = dying
            await join("node-3", seed=3)
            coord._put_blocks = real
            assert batches  # the joiner's first batch was on the wire
            # rejoin: the same node comes back empty and is filled
            await join("node-3", seed=4)
            # a live member leaves
            await coord.deregister("node-1")
            for name, payload in objects.items():
                got = await coord.get(name, want_payload=True)
                assert got.payload == payload
            await cluster.close()

        run(check())
        kinds = [kind for kind, _ in seen]
        assert {kind: kinds.count(kind) for kind in set(kinds)} == {
            "join": 5,
            "put": 3,
            "leave": 2,
            "repair": len(kinds) - 10,
        }
        assert kinds.count("repair") >= 12  # 4 stripes, 3+ passes
        partial = [p for kind, p in seen if kind == "repair"]
        assert any(partial) and not all(partial)
        # a repair wave's records commit as one batch: one append, one
        # recovery check after it
        assert sum(n for n, _ in batches_seen) == len(seen)
        assert max(n for n, _ in batches_seen) == 4
        # the commit that crossed snapshot_every snapshotted *after*
        # it applied: recovery from snapshot alone matched, above
        assert sum(snapshotted for _, snapshotted in batches_seen) >= 2
