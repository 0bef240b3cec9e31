"""Prioritized, budgeted, preemptible repair scheduling.

Repair bytes are the resource an archive must budget (Park et al.,
arXiv:1710.05615; Dimakis et al., arXiv:0803.0632); this module is the
operational half of that argument:

* **One holder table, one decision.**  A scrub pass
  (:meth:`RepairScheduler.scan`) probes the fleet and parses every live
  node's ``block.list`` reply once into a :class:`HolderTable`: per
  stripe, a bool array of graph node × node id.
  :meth:`HolderTable.classify` is the one repair decision.  From that
  array and the stripe's desired placement it derives the blocks no
  node holds (``missing``), the ones their desired owner lacks
  (``need``), the lowest-id live holder to read each from (``source``)
  and the copies off their owner (``strays``).  The scan queues from
  it; the repair wave
  (:meth:`~repro.cluster.coordinator.ClusterCoordinator._repair_stripes`)
  runs from it.  A listed stripe that no manifest held when the scan
  classified, below the ``_next_stripe`` it read, is an *orphan* (a
  replaced object's, or an unjournaled put's): its copies are strays.
* **At-risk-first ordering.**  A stripe is keyed by its *margin*: the
  graph's first-failure point minus one minus the blocks missing, the
  :class:`~repro.storage.monitor.StripeMonitor` health metric.  Pure
  rebalances and orphans sort after every at-risk stripe; ties break by
  (object, stripe index).
* **Bytes-per-cycle budget.**  A :meth:`run_cycle` moves at most
  ``bytes_per_cycle`` of estimated repair traffic (one stripe at the
  least); what it defers stays queued (``cluster.repair.deferred``).
* **Waves.**  A cycle repairs its stripes as waves of at most
  ``_WAVE_BYTES`` of stripe bytes: one fetch, one put and one delete
  RPC per node and one WAL fsync per wave.
* **Foreground preemption.**  Before each wave the scheduler waits for
  in-flight reads to drain (``preemptions``), and a wave holds only its
  own stripes' locks.  The wait also makes deleting orphans safe: a
  read that captured a replaced manifest began before the scan, so it
  has finished.

Metrics: ``cluster.repair.queued``, ``cluster.repair.deferred``,
``cluster.repair.bytes_budgeted`` (budget granted to cycles), and the
``cluster.repair.queue_depth`` / ``margin_min`` / ``at_risk_stripes``
gauges.  The ``cluster.repair_status`` op exposes :meth:`status`.
"""

from __future__ import annotations

import asyncio
import functools
import heapq
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, NamedTuple

import numpy as np

from .._checks import check_count
from ..obs.registry import registry
from ..obs.trace import trace_span
from ..storage.blockstore import block_key, parse_block_key
from ..storage.monitor import graph_first_failure

__all__ = ["HolderTable", "RepairScheduler"]

# Stripe bytes (graph nodes x block size) one repair wave may hold: big
# enough to batch a cycle's RPCs and fsyncs, small enough to bound the
# memory a wave holds and the time a read waits on its locks.
_WAVE_BYTES = 1 << 20

TOTAL_KEYS = (
    "moved_blocks",
    "moved_bytes",
    "rebuilt_blocks",
    "rebuilt_bytes",
    "unrepairable_blocks",
    "repaired_stripes",
    "deferred_stripes",
)


Stripe = tuple[str, int]  # (object name, stripe index)


class Holding(NamedTuple):
    """One stripe's repair decision, row ``j`` for graph node ``j``."""

    missing: np.ndarray  # no node holds the block
    need: np.ndarray  # its desired owner lacks it: move or rebuild it
    source: np.ndarray  # column of its lowest-id live holder, -1 for none
    strays: np.ndarray  # graph node x column: a copy off the desired owner
    owner: np.ndarray  # graph node x column: the desired owner's cell


class HolderTable:
    """Who holds which block: one bool array per listed stripe.

    ``stripes[(name, index)][j, c]`` is true when node ``nodes[c]``
    (columns in id order) listed graph node ``j``'s block.  The scan
    parses the ``block.list`` replies, ``{node_id: keys}``, once (a key
    that is not a graph node's canonical ``block_key`` is left alone);
    the wave updates it after its put and delete barriers.  ``orphans``
    are the stripes the scan found in no manifest, below the
    ``_next_stripe`` it read.
    """

    def __init__(self, listings: Mapping[str, Iterable[str]], num_nodes: int):
        self.nodes = tuple(sorted(listings))
        self.shape = (num_nodes, len(self.nodes))
        self.stripes: dict[Stripe, np.ndarray] = {}
        self.orphans: frozenset[Stripe] = frozenset()
        node_of = {str(j): j for j in range(num_nodes)}  # canonical spellings
        for column, nid in enumerate(self.nodes):
            # Group the keys by stripe prefix; parse one key per stripe.
            groups: dict[str, tuple[str, list[int]]] = {}
            for key in listings[nid]:
                prefix, _, node = key.rpartition("/")
                if (j := node_of.get(node)) is not None:
                    if (group := groups.get(prefix)) is None:
                        group = groups[prefix] = (key, [])
                    group[1].append(j)
            for key, nodes in groups.values():
                try:
                    name, index, node = parse_block_key(key)
                except ValueError:
                    continue
                if index >= 0 and block_key(name, index, node) == key:
                    self.held((name, index))[nodes, column] = True

    def held(self, stripe: Stripe) -> np.ndarray:
        """The stripe's array, created empty on first use."""
        return self.stripes.setdefault(stripe, np.zeros(self.shape, dtype=bool))

    def classify(
        self,
        stripe: Stripe,
        desired: tuple[str, ...] | None,
        links: Mapping[str, Any],
    ) -> Holding:
        """The repair decision for one stripe: the scan's margin and
        byte estimate and the wave's plan both come from here.

        ``desired`` is the stripe's placement, or ``None`` for an
        orphan, whose every copy is a stray.  An owner the table does
        not know holds nothing; a holder is live while ``links`` says.
        """
        held = self.stripes.get(stripe, np.zeros(self.shape, dtype=bool))
        wanted = desired is not None  # an orphan wants no block back
        owner = _owned(desired, self.nodes) if wanted else np.zeros_like(held)
        live = [getattr(links.get(nid), "alive", False) for nid in self.nodes]
        readable = held & np.array(live, dtype=bool)
        return Holding(
            missing=~held.any(axis=1) & wanted,
            need=~(held & owner).any(axis=1) & wanted,
            source=np.where(readable.any(axis=1), readable.argmax(axis=1), -1),
            strays=held & ~owner,
            owner=owner,
        )


@functools.lru_cache(maxsize=256)
def _owned(desired: tuple[str, ...], nodes: tuple[str, ...]) -> np.ndarray:
    owned = np.array(desired, dtype=str)[:, None] == np.array(nodes, dtype=str)
    owned.flags.writeable = False  # every stripe of the pattern shares it
    return owned


@dataclass(order=True)
class _QueueEntry:
    """One stripe awaiting repair, ordered most-at-risk first."""

    margin: int
    name: str
    index: int
    est_bytes: int = field(compare=False)


class RepairScheduler:
    """Incremental per-stripe repair queue over a cluster coordinator."""

    def __init__(self, coordinator, *, bytes_per_cycle: int | None = None):
        if bytes_per_cycle is not None:
            check_count(bytes_per_cycle, "bytes_per_cycle", 1)
        self.coordinator = coordinator
        self.bytes_per_cycle = bytes_per_cycle
        self._heap: list[_QueueEntry] = []
        self._queued: set[tuple[str, int]] = set()
        self._holders = HolderTable({}, 0)
        # One repair activity at a time: concurrent repair RPCs queue
        # behind each other instead of double-moving blocks.
        self._lock = asyncio.Lock()
        self.scans = 0
        self.cycles = 0
        self.preemptions = 0
        self.totals: dict[str, int] = dict.fromkeys(TOTAL_KEYS, 0)
        self.last_cycle: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Scrub: telemetry in, queue out
    # ------------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._heap)

    async def scan(self) -> int:
        """Probe + inventory the fleet and queue stripes needing work.

        Returns the number of stripes newly queued: every stripe the
        holder table shows missing, misplaced or stray blocks, then
        every orphan.
        """
        async with self._lock:
            return await self._scan_locked()

    async def _scan_locked(self) -> int:
        coord = self.coordinator
        queued = 0
        with trace_span("cluster.repair.scan"):
            await coord.probe()
            self._holders = table = await coord._inventory()
            if coord.ring.members:
                stored = {
                    (name, r.index): coord._stripe_placement(name, r.index)
                    for name in sorted(coord.manifests)
                    for r in coord.manifests[name].stripes
                }
                # A put in flight places stripes from _next_stripe up.
                table.orphans = frozenset(
                    stripe for stripe in table.stripes
                    if stripe not in stored and stripe[1] < coord._next_stripe
                )
                stored.update(dict.fromkeys(sorted(table.orphans)))
                for stripe, desired in stored.items():
                    if stripe in self._queued:
                        continue
                    if work := self._stripe_work(stripe, desired, self.first_failure):
                        margin, est_bytes = work
                        entry = _QueueEntry(margin, *stripe, est_bytes)
                        heapq.heappush(self._heap, entry)
                        self._queued.add(stripe)
                        queued += 1
        if queued:
            registry().counter("cluster.repair.queued").inc(queued)
        self._publish()
        self.scans += 1
        return queued

    def _stripe_work(
        self, stripe: Stripe, desired, ff: int
    ) -> tuple[int, int] | None:
        """(margin, estimated repair bytes) or None when healthy."""
        holding = self._holders.classify(stripe, desired, self.coordinator.nodes)
        if not holding.need.any() and not holding.strays.any():
            return None
        # The StripeMonitor margin: losses certainly tolerated beyond
        # what is already gone.
        margin = ff - 1 - int(holding.missing.sum())
        est_bytes = int(holding.need.sum()) * self.coordinator.codec.block_size
        return margin, est_bytes

    # ------------------------------------------------------------------
    # Cycles: budgeted, preemptible repair work
    # ------------------------------------------------------------------

    async def run_cycle(self) -> dict[str, int]:
        """Repair queued stripes until the bytes budget is spent."""
        async with self._lock:
            return await self._cycle_locked()

    async def _cycle_locked(self) -> dict[str, int]:
        coord = self.coordinator
        reg = registry()
        budget = self.bytes_per_cycle
        if budget is not None and self._heap:
            reg.counter("cluster.repair.bytes_budgeted").inc(budget)
        stats = dict.fromkeys(TOTAL_KEYS, 0)
        spent = 0
        stripe_bytes = coord.graph.num_nodes * coord.codec.block_size
        per_wave = max(1, _WAVE_BYTES // stripe_bytes)
        with trace_span("cluster.repair.cycle", queue=len(self._heap)):
            while self._heap:
                await self._yield_to_reads()
                wave: list[tuple[str, int]] = []
                planned = spent
                while self._heap and len(wave) < per_wave:
                    entry = self._heap[0]
                    if (
                        budget is not None
                        and planned > 0
                        and planned + entry.est_bytes > budget
                    ):
                        break
                    heapq.heappop(self._heap)
                    self._queued.discard((entry.name, entry.index))
                    wave.append((entry.name, entry.index))
                    planned += entry.est_bytes
                if not wave:
                    stats["deferred_stripes"] += len(self._heap)
                    reg.counter("cluster.repair.deferred").inc(
                        len(self._heap)
                    )
                    break
                done = await coord._repair_stripes(wave, self._holders)
                for key, value in done.items():
                    stats[key] += value
                spent += done["moved_bytes"] + done["rebuilt_bytes"]
                # Yield between waves so pipelined foreground work
                # gets the loop before the next repair RPC burst.
                await asyncio.sleep(0)
        self.cycles += 1
        for key in TOTAL_KEYS:
            self.totals[key] += stats[key]
        stats["spent_bytes"] = spent
        self.last_cycle = dict(stats)
        self._publish()
        return stats

    def _publish(self) -> None:
        reg = registry()
        reg.gauge("cluster.repair.queue_depth").set(len(self._heap))
        reg.gauge("cluster.repair.margin_min").set(float(self.margin_min))
        reg.gauge("cluster.repair.at_risk_stripes").set(float(self.at_risk_stripes))

    async def _yield_to_reads(self) -> None:
        coord = self.coordinator
        if coord.reads_inflight > 0:
            self.preemptions += 1
            while coord.reads_inflight > 0:
                await asyncio.sleep(0.001)

    async def drain(self) -> dict[str, int]:
        """Scan once, then run budgeted cycles until the queue empties:
        ``repair`` and the pass behind ``cluster.join`` /
        ``cluster.leave``, in budget-bounded, read-preemptible steps.
        """
        totals = dict.fromkeys(
            (*TOTAL_KEYS, "spent_bytes", "cycles"), 0
        )
        await self.scan()
        while self._heap:
            cycle = await self.run_cycle()
            for key in (*TOTAL_KEYS, "spent_bytes"):
                totals[key] += cycle[key]
            totals["cycles"] += 1
        return totals

    # ------------------------------------------------------------------
    # Introspection (the ``cluster.repair_status`` op)
    # ------------------------------------------------------------------

    @functools.cached_property
    def first_failure(self) -> int:
        return graph_first_failure(self.coordinator.graph)

    @property
    def healthy_margin(self) -> int:
        """Margin of a stripe missing nothing: first-failure − 1."""
        return self.first_failure - 1

    @property
    def margin_min(self) -> int:
        """Smallest margin across queued stripes (healthy when empty).

        ``first_failure − 1 − missing`` per stripe: how many further
        losses the guarantee certainly tolerates.  Zero or below means
        a stripe is one erasure from (possibly) unrecoverable — the
        durability signal the SLO engine alerts on.
        """
        if self._heap:
            return min(entry.margin for entry in self._heap)
        return self.healthy_margin

    @property
    def at_risk_stripes(self) -> int:
        """Queued stripes whose margin has reached zero or below."""
        return sum(1 for entry in self._heap if entry.margin <= 0)

    def status(self) -> dict[str, Any]:
        return {
            "queue_depth": len(self._heap),
            "margin_min": self.margin_min,
            "at_risk_stripes": self.at_risk_stripes,
            "healthy_margin": self.healthy_margin,
            "bytes_per_cycle": self.bytes_per_cycle,
            "scans": self.scans,
            "cycles": self.cycles,
            "preemptions": self.preemptions,
            "totals": dict(self.totals),
            "last_cycle": dict(self.last_cycle),
            "next": [
                {
                    "object": e.name,
                    "stripe": e.index,
                    "margin": e.margin,
                    "est_bytes": e.est_bytes,
                }
                for e in sorted(self._heap)[:5]
            ],
        }
