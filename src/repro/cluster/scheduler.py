"""Prioritized, budgeted, preemptible repair scheduling.

PR 6's ``repair()`` was one monolithic pass: it walked every stripe of
every object under the cluster lock and moved as many bytes as the
pass needed, with no notion of which stripes were closest to data loss
and no bound on the repair traffic one call could generate.  The
repair-bandwidth literature (Park et al., arXiv:1710.05615; Dimakis et
al., arXiv:0803.0632) treats repair bytes as the scarce resource a
storage system must budget — this module is the operational half of
that argument:

* **At-risk-first ordering.**  A scrub pass (:meth:`RepairScheduler.scan`)
  probes the fleet, inventories every block's live holders, and queues
  each stripe needing work keyed by its *margin* — the graph's
  first-failure point minus one minus the blocks already missing,
  exactly the :class:`~repro.storage.monitor.StripeMonitor` health
  metric.  Stripes one loss from the guarantee boundary repair before
  stripes that merely need rebalancing; ties break deterministically
  by (object, stripe index).
* **Bytes-per-cycle budget.**  Each :meth:`run_cycle` call moves at
  most ``bytes_per_cycle`` of repair traffic (estimated per stripe
  before starting it; at least one stripe always runs so progress is
  guaranteed even when a single stripe exceeds the budget).  What the
  budget defers stays queued for the next cycle and is counted in
  ``cluster.repair.deferred``.
* **Waves.**  A cycle repairs its stripes in priority order as waves
  of at most ``_WAVE_BYTES`` of stripe bytes (one stripe at the
  least); a wave is one repair step
  (:meth:`~repro.cluster.coordinator.ClusterCoordinator._repair_stripes`):
  one fetch, one put and one delete RPC per node and one WAL fsync,
  whatever the number of stripes in it.
* **Foreground preemption.**  Between waves the scheduler yields to
  the event loop and waits for in-flight ``get`` requests to
  drain before touching the next wave (``cluster.repair.preempted``),
  and a wave holds only its own stripes' locks, so reads interleave
  with an active rebuild instead of stalling behind it.  Under
  *sustained* read pressure repair trickles — interactive reads
  outrank background repair by design (cf. ROADMAP item 4's admission
  priorities).

Metrics: ``cluster.repair.queued`` (stripes entering the queue),
``cluster.repair.deferred`` (budget deferrals),
``cluster.repair.preempted`` (read-pressure waits),
``cluster.repair.bytes_budgeted`` (budget granted to cycles), and the
``cluster.repair.queue_depth`` gauge.  The ``cluster.repair_status``
protocol op exposes :meth:`status` to operators.
"""

from __future__ import annotations

import asyncio
import heapq
from dataclasses import dataclass, field
from typing import Any

from .._checks import check_count
from ..obs.registry import registry
from ..obs.trace import trace_span
from ..storage.blockstore import block_key
from ..storage.monitor import graph_first_failure

__all__ = ["RepairScheduler"]

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
        self._holders: dict[str, set[str]] = {}
        # One repair activity at a time: concurrent repair RPCs queue
        # behind each other instead of double-moving blocks.
        self._lock = asyncio.Lock()
        self.scans = 0
        self.cycles = 0
        self.preemptions = 0
        self.last_first_failure: int | None = None
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

        Returns the number of stripes newly queued.  This is the scrub
        feed: it computes each stripe's live-holder set, derives the
        margin, and enqueues anything missing blocks, holding
        misplaced blocks, or trailing stray copies.
        """
        async with self._lock:
            return await self._scan_locked()

    async def _scan_locked(self) -> int:
        coord = self.coordinator
        queued = 0
        with trace_span("cluster.repair.scan"):
            await coord.probe()
            self._holders = await coord._inventory()
            if coord.ring.members:
                ff = graph_first_failure(coord.graph)
                self.last_first_failure = ff
                for name in sorted(coord.manifests):
                    for record in coord.manifests[name].stripes:
                        queued += self._consider(name, record, ff)
        reg = registry()
        if queued:
            reg.counter("cluster.repair.queued").inc(queued)
        reg.gauge("cluster.repair.queue_depth").set(len(self._heap))
        reg.gauge("cluster.repair.margin_min").set(float(self.margin_min))
        reg.gauge("cluster.repair.at_risk_stripes").set(
            float(self.at_risk_stripes)
        )
        self.scans += 1
        return queued

    def _consider(self, name: str, record, ff: int) -> int:
        key = (name, record.index)
        if key in self._queued:
            return 0
        work = self._stripe_work(name, record, ff)
        if work is None:
            return 0
        margin, est_bytes = work
        heapq.heappush(
            self._heap,
            _QueueEntry(margin, name, record.index, est_bytes),
        )
        self._queued.add(key)
        return 1

    def _stripe_work(
        self, name: str, record, ff: int
    ) -> tuple[int, int] | None:
        """(margin, estimated repair bytes) or None when healthy."""
        coord = self.coordinator
        desired = coord._stripe_placement(name, record.index)
        missing = misplaced = strays = 0
        prefix = block_key(name, record.index, "")
        for node, owner in enumerate(desired):
            holding = self._holders.get(prefix + str(node), ())
            if not holding:
                missing += 1
                continue
            if owner not in holding:
                misplaced += 1
            if len(holding) > (owner in holding):  # a copy off its owner
                strays += 1
        if not missing and not misplaced and not strays:
            return None
        # The StripeMonitor margin: losses certainly tolerated beyond
        # what is already gone.  Stripes not missing anything (pure
        # rebalances, stray cleanup) sort after every at-risk stripe.
        margin = ff - 1 - missing
        est_bytes = (missing + misplaced) * coord.codec.block_size
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
        reg.gauge("cluster.repair.queue_depth").set(len(self._heap))
        reg.gauge("cluster.repair.margin_min").set(float(self.margin_min))
        reg.gauge("cluster.repair.at_risk_stripes").set(
            float(self.at_risk_stripes)
        )
        return stats

    async def _yield_to_reads(self) -> None:
        coord = self.coordinator
        if coord.reads_inflight > 0:
            self.preemptions += 1
            registry().counter("cluster.repair.preempted").inc()
            while coord.reads_inflight > 0:
                await asyncio.sleep(0.001)

    async def drain(self) -> dict[str, int]:
        """Scan once, then run budgeted cycles until the queue empties.

        The full-repair entry point ``repair`` (and the repair
        pass behind ``cluster.join`` / ``cluster.leave``) is this
        drain: same totals as the old monolithic pass, but delivered
        as budget-bounded, read-preemptible increments.
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

    @property
    def healthy_margin(self) -> int:
        """Margin of a stripe missing nothing: first-failure − 1."""
        coord = self.coordinator
        ff = self.last_first_failure
        if ff is None:
            ff = graph_first_failure(coord.graph)
            self.last_first_failure = ff
        return ff - 1

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
