"""The holder table: one repair decision for the scan and the wave, and
the orphans it reclaims (a replaced object's blocks, an unjournaled
put's once ``_next_stripe`` has passed them)."""

import asyncio
from types import SimpleNamespace

import numpy as np

from repro.cluster import ClusterCoordinator, StorageNode
from repro.cluster.scheduler import HolderTable, RepairScheduler
from repro.graphs import tornado_catalog_graph
from repro.obs.registry import capture
from repro.storage.blockstore import block_key

from .test_repair_burst import BLOCK, Cluster, payload_bytes, run

NODES = tuple(f"node-{i}" for i in range(5))
GRAPH_NODES = 12
FF = 5  # a first-failure point for the margin check


def random_state(rng):
    """Holders of one stripe's blocks, today's ``key -> set(node id)``.

    The stripe was placed over an old membership, then lost blocks,
    gained extra copies, and one member may have left or joined.
    """
    members = sorted(rng.choice(NODES, rng.integers(1, 5), replace=False))
    old = sorted(rng.choice(NODES, rng.integers(1, 5), replace=False))
    anchor = int(rng.integers(len(old)))
    holders = {
        j: {old[(anchor + j) % len(old)]} for j in range(GRAPH_NODES)
    }
    for j in range(GRAPH_NODES):
        if rng.random() < 0.25:
            holders[j].clear()  # deleted
        if rng.random() < 0.25:
            holders[j].add(str(rng.choice(NODES)))  # an extra copy
    anchor = int(rng.integers(len(members)))
    desired = tuple(
        members[(anchor + j) % len(members)] for j in range(GRAPH_NODES)
    )
    return holders, desired


def reference(holders, desired, live):
    """Today's per-key rules, block by block."""
    out = []
    for j, owner in enumerate(desired):
        holding = holders[j]
        readable = holding & live
        out.append({
            "missing": not holding,
            "misplaced": bool(holding) and owner not in holding,
            "need": owner not in holding,
            "source": min(readable) if readable else None,
            "strays": {nid for nid in holding if nid != owner},
        })
    return out


def table_of(stripes):
    """A table parsed from per-node listings of ``{stripe: holders}``,
    with keys in other spellings mixed in."""
    listings = {}
    for (name, index), holders in stripes.items():
        for j, holding in holders.items():
            for nid in holding:
                listings.setdefault(nid, []).append(block_key(name, index, j))
    listed = sorted(listings)
    if listed:
        listings[listed[0]] += [
            "junk", "s/01/2", "s/-1/2", f"s/0/{GRAPH_NODES}", "s/0/ 3",
        ]
    return HolderTable(listings, GRAPH_NODES)


def scheduler_over(table, links):
    """A scheduler whose last scan left ``table``."""
    scheduler = RepairScheduler(
        SimpleNamespace(codec=SimpleNamespace(block_size=BLOCK), nodes=links)
    )
    scheduler._holders = table
    return scheduler


class TestOneClassification:
    def test_classify_matches_the_per_key_rules(self):
        rng = np.random.default_rng(53)
        for case in range(400):
            holders, desired = random_state(rng)
            stripe = ("s", case % 3)
            table = table_of({stripe: holders})
            # A member that left has no link; a dead one is not alive.
            fates = rng.choice(["left", "dead", "up"], len(NODES), p=[0.15, 0.15, 0.7])
            fate = dict(zip(NODES, fates))
            links = {
                nid: SimpleNamespace(alive=fate[nid] == "up")
                for nid in NODES
                if fate[nid] != "left"
            }
            live_ids = {nid for nid in NODES if fate[nid] == "up"}
            got = table.classify(stripe, desired, links)
            want = reference(holders, desired, live_ids)
            for j, rules in enumerate(want):
                assert got.missing[j] == rules["missing"], (case, j)
                assert got.need[j] == rules["need"], (case, j)
                assert (got.need[j] and not got.missing[j]) == rules["misplaced"]
                source = got.source[j]
                assert (
                    table.nodes[source] if source >= 0 else None
                ) == rules["source"], (case, j)
                assert {
                    table.nodes[c] for c in np.flatnonzero(got.strays[j])
                } == rules["strays"], (case, j)
            # The scheduler's margin and byte estimate read the same
            # decision.
            scheduler = scheduler_over(table, links)
            missing = sum(r["missing"] for r in want)
            misplaced = sum(r["misplaced"] for r in want)
            strays = sum(bool(r["strays"]) for r in want)
            expect = None
            if missing or misplaced or strays:
                expect = (FF - 1 - missing, (missing + misplaced) * BLOCK)
            assert scheduler._stripe_work(stripe, desired, FF) == expect

    def test_an_orphan_is_all_strays_and_at_no_risk(self):
        rng = np.random.default_rng(7)
        holders, _ = random_state(rng)
        holders[0] = {"node-1"}
        table = table_of({("gone", 4): holders})
        links = {nid: SimpleNamespace(alive=True) for nid in NODES}
        got = table.classify(("gone", 4), None, links)
        assert not got.missing.any() and not got.need.any()
        for j, holding in holders.items():
            assert {
                table.nodes[c] for c in np.flatnonzero(got.strays[j])
            } == holding
        scheduler = scheduler_over(table, links)
        assert scheduler._stripe_work(("gone", 4), None, FF) == (FF - 1, 0)

    def test_an_unknown_owner_holds_nothing(self):
        holders = {j: {"node-0"} for j in range(GRAPH_NODES)}
        table = table_of({("s", 0): holders})
        desired = ("node-9",) * GRAPH_NODES  # joined after the scan
        links = {"node-0": SimpleNamespace(alive=True)}
        got = table.classify(("s", 0), desired, links)
        assert got.need.all() and not got.missing.any()
        assert got.strays.all() and (got.source == 0).all()


def manifest_keys(coord):
    return {
        block_key(name, record.index, j)
        for name, manifest in coord.manifests.items()
        for record in manifest.stripes
        for j in range(coord.graph.num_nodes)
    }


def listed(cluster):
    """Every stored key, once per node holding it."""
    return sorted(
        key for node in cluster.nodes.values() for key in node.store.keys()
    )


async def until(predicate):
    async def poll():
        while not predicate():
            await asyncio.sleep(0.001)

    await asyncio.wait_for(poll(), 10)


class TestOrphans:
    def test_an_overwrite_leaves_only_the_manifests_blocks(self):
        async def check():
            cluster = await Cluster.start(3)
            coord = cluster.coordinator
            await coord.put("a", payload_bytes(5000, seed=1))
            await coord.put("a", payload_bytes(5000, seed=2))
            assert len(listed(cluster)) == 384
            summary = await coord.repair()
            assert listed(cluster) == sorted(manifest_keys(coord))
            assert len(listed(cluster)) == 192
            assert summary["repaired_stripes"] == 0
            assert summary["moved_blocks"] == summary["rebuilt_blocks"] == 0
            assert (await coord.repair(mode="scan"))["queued"] == 0
            got = await coord.get("a", want_payload=True)
            assert got.payload == payload_bytes(5000, seed=2)
            await cluster.close()

        run(check())

    def test_a_read_that_began_before_the_overwrite_gets_the_old_bytes(self):
        async def check():
            cluster = await Cluster.start(3)
            coord = cluster.coordinator
            old, new = payload_bytes(5000, seed=1), payload_bytes(5000, seed=2)
            await coord.put("a", old)
            first = coord.manifests["a"].stripes[0]
            async with coord._stripe_lock("a", first.index):
                reader = asyncio.create_task(
                    coord.get("a", want_payload=True)
                )
                raw = asyncio.create_task(coord.fetch_stripe_raw("a", 0))
                await until(lambda: coord.reads_inflight == 2)
                await coord.put("a", new)
                repair = asyncio.create_task(coord.repair())
                # The scan classified the old stripes as orphans; the
                # wave waits for both reads before deleting them.
                await until(lambda: coord.scheduler.preemptions == 1)
                assert not repair.done()
            assert (await reader).payload == old
            assert len((await raw).nodes) == coord.graph.num_nodes
            await repair
            assert listed(cluster) == sorted(manifest_keys(coord))
            got = await coord.get("a", want_payload=True)
            assert got.payload == new
            await cluster.close()

        run(check())

    def test_an_unjournaled_put_is_reclaimed_once_next_stripe_passes_it(self):
        async def check():
            cluster = await Cluster.start(3)
            coord = cluster.coordinator
            await coord.put("a", payload_bytes(1000, seed=1))
            node = cluster.nodes["node-0"]
            # A put in flight (or one a crash left unjournaled) places
            # from _next_stripe up; and keys in other spellings.
            ghost = [block_key("ghost", coord._next_stripe, j) for j in range(3)]
            odd = ["junk", "a/01/2", "ghost/-1/0", "ghost/0/96", "a/0/ 1"]
            for key in ghost + odd:
                node.store.put(key, b"\0" * BLOCK)
            await coord.repair()
            assert set(ghost + odd) <= set(node.store.keys())
            await coord.put("b", payload_bytes(1000, seed=2))
            await coord.repair()
            kept = set(node.store.keys())
            assert not kept & set(ghost)
            assert set(odd) <= kept
            assert set(listed(cluster)) - set(odd) == manifest_keys(coord)
            await cluster.close()

        run(check())


class TestOneRepairByteAccount:
    def test_a_recovered_scrape_equals_the_live_one(self, tmp_path):
        def repair_counters(coord):
            counters = coord.metrics_snapshot()["counters"]
            return {
                name: value for name, value in counters.items()
                if name.startswith("cluster.repair.bytes")
            }

        async def check():
            with capture():
                cluster = await Cluster.start(3, wal_dir=tmp_path)
                coord = cluster.coordinator
                await cluster.put_objects(2)
                await cluster.join(StorageNode("node-3", seed=3))
                live = repair_counters(coord)
                await cluster.close()
            with capture():
                recovered = ClusterCoordinator(
                    tornado_catalog_graph(3),
                    block_size=BLOCK,
                    wal_dir=tmp_path,
                    recover=True,
                )
                assert repair_counters(recovered) == live
                recovered.wal.close()
            assert live["cluster.repair.bytes"] == coord.repair_bytes > 0
            assert live == {
                "cluster.repair.bytes": coord.repair_bytes,
                **{
                    f"cluster.repair.bytes.{nid}": nbytes
                    for nid, nbytes in coord.repair_bytes_by_node.items()
                },
            }

        run(check())
