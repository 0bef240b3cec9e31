"""Repair in waves: one repair step for many stripes.

A wave must leave exactly what one-stripe waves leave, cost at most one
fetch, one put and one delete RPC per member and one WAL fsync, and be
crash-safe at every record boundary of its batched append.
"""

import errno
import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator, CoordinatorWal, StorageNode
from repro.cluster import scheduler as scheduler_mod
from repro.cluster import wal as wal_mod
from repro.graphs import tornado_catalog_graph
from repro.serve.protocol import (
    BlockDeleteRequest,
    BlockFetchRequest,
    BlockPutRequest,
)
from repro.storage.blockstore import block_key

from .test_repair_burst import (
    BLOCK,
    Cluster,
    assert_reads,
    listed_copies,
    payload_bytes,
    run,
)

WIDE = 768  # the benchmark's block size: 14 stripes fill a 1 MiB wave


def portless_sha256(coord):
    """``state_sha256`` with the members' listening ports zeroed."""
    state = coord.state_dict()
    state["members"] = [[nid, host, 0] for nid, host, _ in state["members"]]
    return hashlib.sha256(
        json.dumps(state, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


async def start(members, block_size, **kwargs):
    cluster = Cluster(
        ClusterCoordinator(
            tornado_catalog_graph(3), block_size=block_size, **kwargs
        )
    )
    for i in range(members):
        await cluster.join(StorageNode(f"node-{i}", seed=i))
    return cluster


async def damage_then_leave(objects=20, seed=7):
    """Seeded scattered damage, a repair drain, then a member leaves.

    Returns everything the wave width must not change.
    """
    cluster = await start(4, WIDE)
    coord = cluster.coordinator
    stripe = coord.codec.stripe_capacity
    payloads = {
        f"obj-{i:02d}": payload_bytes(stripe - 97 * i, seed=i)
        for i in range(objects)
    }
    for name, payload in payloads.items():
        assert (await coord.put(name, payload))["failed_blocks"] == 0
    rng = np.random.default_rng(seed)
    for name in payloads:
        (record,) = coord.manifests[name].stripes
        for node in rng.choice(96, 4, replace=False):
            owner = cluster.nodes[record.placement[node]]
            assert owner.store.delete(block_key(name, record.index, int(node)))
    scattered = await coord.repair()
    left = await coord.deregister("node-1")
    read = {
        name: (await coord.get(name, want_payload=True)).payload
        for name in payloads
    }
    outcome = {
        "scattered": {k: v for k, v in scattered.items() if k != "cycles"},
        "left": {k: v for k, v in left.items() if k != "cycles"},
        "repair_bytes_by_node": dict(coord.repair_bytes_by_node),
        "plans": coord.plans.stats(),
        "held": cluster.held(),
        "read_back": read == payloads,
        "state": portless_sha256(coord),
    }
    await cluster.close()
    return outcome


class TestWaveWidthIsInvisible:
    def test_one_wave_equals_one_stripe_waves_and_the_per_stripe_pass(
        self, monkeypatch
    ):
        waves = []
        real = ClusterCoordinator._repair_stripes

        async def counting(self, stripes, holders):
            waves.append(len(stripes))
            return await real(self, stripes, holders)

        monkeypatch.setattr(ClusterCoordinator, "_repair_stripes", counting)
        wide = run(damage_then_leave())
        assert waves == [14, 6, 14, 6]
        waves.clear()
        monkeypatch.setattr(scheduler_mod, "_WAVE_BYTES", 1)
        narrow = run(damage_then_leave())
        assert waves == [1] * 40
        assert wide == narrow
        assert wide["read_back"]
        assert wide["scattered"]["unrepairable_blocks"] == 0
        assert wide["left"]["unrepairable_blocks"] == 0
        # Pinned from the one-stripe-at-a-time pass this replaced.
        assert (wide["scattered"]["rebuilt_blocks"],
                wide["scattered"]["moved_blocks"]) == (80, 0)
        assert (wide["left"]["rebuilt_blocks"],
                wide["left"]["moved_blocks"]) == (480, 960)
        assert wide["repair_bytes_by_node"] == PARENT_BY_NODE
        assert wide["plans"] == PARENT_PLANS
        assert wide["state"] == PARENT_STATE
        held = {nid: sorted(keys) for nid, keys in wide["held"].items()}
        assert hashlib.sha256(
            json.dumps(held, sort_keys=True).encode()
        ).hexdigest() == PARENT_HELD


class TestWaveBounds:
    def test_a_drain_costs_three_rpcs_per_member_and_one_fsync_per_wave(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(scheduler_mod, "_WAVE_BYTES", 3 * 96 * BLOCK)

        async def check():
            cluster = await start(4, BLOCK, wal_dir=tmp_path)
            coord = cluster.coordinator
            objects = await cluster.put_objects(8)
            sent, waves = [], []
            rpcs, repair = coord._rpcs, coord._repair_stripes

            async def recording(bursts):
                for _, requests in bursts:
                    sent.extend(map(type, requests))
                return await rpcs(bursts)

            async def counting(stripes, holders):
                seq, fsyncs = coord.wal.seq, coord.wal.fsyncs
                done = await repair(stripes, holders)
                waves.append(
                    (
                        len(stripes),
                        coord.wal.seq - seq,
                        coord.wal.fsyncs - fsyncs,
                    )
                )
                return done

            coord._rpcs, coord._repair_stripes = recording, counting
            summary = await coord.deregister("node-1")
            members = len(coord.ring.members)
            assert summary["repaired_stripes"] == 8
            assert [n for n, _, _ in waves] == [3, 3, 2]
            for stripes, journaled, fsyncs in waves:
                assert journaled == stripes
                assert fsyncs == 1
            repair_rpcs = [
                kind for kind in sent
                if kind in (BlockFetchRequest, BlockPutRequest,
                            BlockDeleteRequest)
            ]
            assert len(repair_rpcs) <= len(waves) * 3 * members
            # A healthy drain journals nothing and fsyncs nothing.
            waves.clear()
            again = await coord.repair()
            assert again["repaired_stripes"] == 0 and waves == []
            await assert_reads(coord, objects)
            coord.wal.close()
            await cluster.close()

        run(check())

    def test_one_append_writes_every_record_behind_one_fsync(self, tmp_path):
        wal = CoordinatorWal(tmp_path)
        assert wal.append({"type": "put", "name": "a"}) == 1
        assert wal.append(
            *({"type": "put", "name": n} for n in "bcd")
        ) == 4
        assert (wal.appended, wal.fsyncs) == (4, 2)
        wal.close()
        wal = CoordinatorWal(tmp_path)
        _, records = wal.load()
        wal.close()
        assert [(r["seq"], r["name"]) for r in records] == [
            (1, "a"), (2, "b"), (3, "c"), (4, "d")
        ]


class SimulatedCrash(BaseException):
    """The process dies right after the wave's records reach the file."""


class TestBatchedCommitCrashPoints:
    def test_every_record_boundary_and_torn_tail_of_a_wave_recovers(
        self, tmp_path
    ):
        live = tmp_path / "live"

        async def check():
            cluster = await start(4, BLOCK, wal_dir=live)
            coord = cluster.coordinator
            objects = await cluster.put_objects(5)
            wal_path = live / "wal.jsonl"
            real = coord.wal.append
            wave = {}

            def append_then_crash(*records):
                if records[0]["type"] != "repair":
                    return real(*records)
                wave["start"] = os.path.getsize(wal_path)
                real(*records)
                wave["records"] = records
                raise SimulatedCrash

            coord.wal.append = append_then_crash
            held = cluster.held()
            with pytest.raises(SimulatedCrash):
                await coord.deregister("node-1")
            # No stray was deleted: every old copy is still there.
            assert all(held[nid] <= cluster.held()[nid] for nid in held)
            coord.wal.close()
            records = wave["records"]
            assert len(records) == 5
            seq_before = coord.wal.seq - len(records)
            # The live state after each prefix: the crashed coordinator
            # (memory still before the wave) commits the same records
            # one at a time through the single writer.
            coord.wal = None
            expected = [coord.state_sha256()]
            for record in records:
                coord._commit(record)
                expected.append(coord.state_sha256())
            data = wal_path.read_bytes()
            lines = data[wave["start"]:].splitlines(keepends=True)
            assert len(lines) == len(records)
            cuts = []  # (file length, records that must survive)
            end = wave["start"]
            for k, line in enumerate(lines):
                cuts.append((end, k))
                cuts.append((end + len(line) // 2, k))  # torn tail
                end += len(line)
            cuts.append((end, len(lines)))
            assert end == len(data)
            for i, (length, kept) in enumerate(cuts):
                copy = tmp_path / f"cut-{i}"
                shutil.copytree(live, copy)
                with open(copy / "wal.jsonl", "r+b") as fh:
                    fh.truncate(length)
                recovered = ClusterCoordinator(
                    tornado_catalog_graph(3),
                    block_size=BLOCK,
                    wal_dir=copy,
                    recover=True,
                )
                assert recovered.wal.seq == seq_before + kept, (i, length)
                assert recovered.state_sha256() == expected[kept], i
                await assert_reads(recovered, objects)
                recovered.wal.close()
                for link in recovered.nodes.values():
                    link.reset()
            await cluster.close()

        run(check())

    def test_a_failing_fsync_applies_none_of_the_wave(
        self, monkeypatch, tmp_path
    ):
        async def check():
            cluster = await start(4, BLOCK, wal_dir=tmp_path)
            coord = cluster.coordinator
            objects = await cluster.put_objects(5)
            wal_path = tmp_path / "wal.jsonl"
            real_fsync, real_commit = os.fsync, coord._commit
            state = {}

            def failing_fsync(fd):
                monkeypatch.setattr(wal_mod.os, "fsync", real_fsync)
                raise OSError(errno.EIO, "fsync failed")

            def commit(*records):
                if records[0]["type"] == "repair":
                    state["before"] = coord.state_dict()
                    state["length"] = os.path.getsize(wal_path)
                    monkeypatch.setattr(wal_mod.os, "fsync", failing_fsync)
                return real_commit(*records)

            coord._commit = commit
            held = cluster.held()
            with pytest.raises(OSError, match="fsync failed"):
                await coord.deregister("node-1")
            assert coord.state_dict() == state["before"]
            assert os.path.getsize(wal_path) == state["length"]
            assert all(held[nid] <= cluster.held()[nid] for nid in held)
            await assert_reads(coord, objects)
            # The log stays writable: the next drain finishes the job.
            coord._commit = real_commit
            summary = await coord.repair()
            assert summary["repaired_stripes"] == 5
            assert (await listed_copies(coord) == 1).all()
            await assert_reads(coord, objects)
            coord.wal.close()
            recovered = ClusterCoordinator(
                tornado_catalog_graph(3),
                block_size=BLOCK,
                wal_dir=tmp_path,
                recover=True,
            )
            assert recovered.state_sha256() == coord.state_sha256()
            recovered.wal.close()
            await cluster.close()

        run(check())


# What the one-stripe-at-a-time pass left for damage_then_leave().
PARENT_BY_NODE = {
    "node-0": 383232,
    "node-1": 19200,
    "node-2": 376320,
    "node-3": 388608,
}
PARENT_PLANS = {
    "size": 24, "capacity": 256, "hits": 16, "misses": 24, "evictions": 0
}
PARENT_HELD = (
    "29962c54074da1e95d10151da78ea981ad65ae2e7aad29e2e84fcbe19b5d3d4a"
)
PARENT_STATE = (
    "b4c3cf5ef78ebdbb8ff891c306d73cf9944e05a89ae09cc86a5e6914c6765772"
)
