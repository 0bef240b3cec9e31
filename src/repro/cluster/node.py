"""Storage-node daemon: a :class:`LocalBlockStore` behind the protocol.

One node process serves the block plane — four verbs, each over a
batch of keys: ``block.put`` (keys and one run of blocks; availability
is checked before the first write, so a batch lands whole or not at
all), ``block.fetch`` (one run in request order, and the keys it lacks),
``block.delete`` (acks how many keys it held) and
``block.list`` — plus a small control plane: ``node.admin`` and the
archive-service rows a node implements (``ping``, ``stats``,
``metrics.snapshot`` — dispatched by the shared
:class:`~repro.serve.lineserver.ArchiveEndpoint`, not here).

Fault semantics follow the cluster's availability model: a node-level
outage drawn from a per-node :class:`~repro.resilience.faults.FaultPlan`
(its :class:`~repro.resilience.faults.TransientOutages` specs) makes the
*data plane* answer ``unavailable`` while the blocks stay intact — the
coordinator decodes around the node and retries later, exactly as
degraded reads treat a dark device.  The control plane keeps answering
during an outage (the process is up; its storage backend is not), which
is also what lets a driver ``node.admin step`` the fault process
deterministically instead of racing a wall-clock timer.  Actual data
*loss* is a killed process — nothing to model in here.

Two transport-level fault modes sit above that (driven by
``node.admin`` and the cluster fault plans):

* **Partitioned** — the node accepts TCP connections but never
  answers: requests park in the server until the partition heals, so
  callers see their RPC deadline expire, not a refused connection.
  This is "reachable but dark", the failure detectors genuinely fear.
  ``node.admin`` itself stays answered — it is the chaos harness's
  out-of-band control channel for healing.
* **Slow** — every data-plane reply is delayed by a configured number
  of seconds: alive, correct, and painful, the grey-failure mode
  between healthy and partitioned.

In a traced process, every request that carries a trace context runs
under a ``node.<op>`` span minted by a per-request tracer seeded from
that context (:func:`~repro.obs.trace.context_seed`), so its ids are
the same whichever process serves it.  The span goes to this process's
own trace, failed requests included; the reply carries none.
"""

from __future__ import annotations

import asyncio
from typing import Any

from ..core.codec import BlockRun
from ..obs.registry import registry
from ..obs.seeding import SeedLike, resolve_rng
from ..obs.trace import Tracer, context_seed, tracer
from ..resilience.faults import FaultPlan, TransientOutages, outage_steps
from ..storage.blockstore import LocalBlockStore
from ..storage.device import TransientUnavailableError
from ..serve.lineserver import ArchiveEndpoint, start_line_server
from ..serve.protocol import (
    AckResponse,
    BlockDeleteRequest,
    BlockFetchRequest,
    BlockListRequest,
    BlockPutRequest,
    BlockRunResponse,
    Envelope,
    KeyListResponse,
    NodeAdminRequest,
    ProtocolError,
    Request,
    Response,
)

__all__ = ["StorageNode", "start_storage_node"]


class StorageNode:
    """State and request logic of one storage node (transport-free)."""

    def __init__(
        self,
        node_id: str,
        *,
        seed: SeedLike = 0,
        fault_plan: FaultPlan | None = None,
    ):
        if not node_id:
            raise ValueError("node_id must be non-empty")
        self.node_id = node_id
        self.store = LocalBlockStore()
        self.available = True
        self.partitioned = False
        self.slow_seconds = 0.0
        self.outage_remaining = 0
        self.outages_drawn = 0
        self.steps = 0
        self._rng = resolve_rng(seed)
        # A node models *availability* faults only: of a full fault
        # plan, the transient specs apply; block-level faults (latent
        # errors, corruption) belong to the device layer beneath an
        # archive, and a killed process needs no model at all.
        self._outage_specs: tuple[TransientOutages, ...] = tuple(
            spec
            for spec in (fault_plan.faults if fault_plan else ())
            if isinstance(spec, TransientOutages)
        )

    # -- fault process -------------------------------------------------

    def step(self) -> bool:
        """Advance the availability process one step; returns liveness."""
        self.steps += 1
        if not self.available:
            self.outage_remaining -= 1
            if self.outage_remaining <= 0:
                self.available = True
            return self.available
        for spec in self._outage_specs:
            if self._rng.random() < spec.rate:
                self.interrupt(outage_steps(spec.mean_outage_steps, self._rng))
                break
        return self.available

    def interrupt(self, steps: int = 1) -> None:
        """Force the data plane dark for ``steps`` fault-process steps."""
        self.available = False
        self.outage_remaining = max(1, int(steps))
        self.outages_drawn += 1

    def restore(self) -> None:
        self.available = True
        self.outage_remaining = 0

    def _check_available(self, op: str) -> None:
        if not self.available:
            raise TransientUnavailableError(
                f"node {self.node_id!r} is transiently unavailable "
                f"({op} rejected; {self.outage_remaining} steps remain)"
            )

    # -- request logic -------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "node_id": self.node_id,
            "available": self.available,
            "partitioned": self.partitioned,
            "slow_seconds": self.slow_seconds,
            "outage_remaining": self.outage_remaining,
            "outages_drawn": self.outages_drawn,
            "steps": self.steps,
            **self.store.stats(),
        }

    def metrics_snapshot(self) -> dict[str, Any]:
        """Registry snapshot plus node-state gauges for the scraper.

        Node facts (availability, block counts) live on the node
        object, not in the metrics registry, so the scrape plane
        synthesizes gauges from :meth:`stats` — one source of truth,
        no double bookkeeping.  Served from the control plane: a node
        in a transient outage still reports itself, which is exactly
        how the fleet view distinguishes "dark" from "down".
        """
        snap = registry().snapshot()
        stats = self.stats()
        gauges = snap.setdefault("gauges", {})
        gauges["node.available"] = float(bool(stats["available"]))
        gauges["node.partitioned"] = float(bool(stats["partitioned"]))
        gauges["node.slow_seconds"] = float(stats["slow_seconds"])
        gauges["node.outage_remaining"] = float(
            stats["outage_remaining"]
        )
        gauges["node.outages_drawn"] = float(stats["outages_drawn"])
        gauges["node.blocks"] = float(stats["blocks"])
        gauges["node.bytes_stored"] = float(stats["bytes_stored"])
        counters = snap.setdefault("counters", {})
        counters.setdefault("node.puts", stats["puts"])
        counters.setdefault("node.gets", stats["gets"])
        return snap

    def endpoint(self) -> ArchiveEndpoint:
        """This node's request handler: the archive-service rows it
        implements (control plane) plus :data:`NODE_ROWS`."""
        return ArchiveEndpoint(
            self, "node", source=self.node_id, extra=NODE_ROWS
        )

    def handle(self, request: Request) -> Response:
        """Dispatch one ``node.admin`` or block-plane request."""
        if isinstance(request, NodeAdminRequest):
            if request.action == "interrupt":
                self.interrupt()
            elif request.action == "restore":
                self.restore()
            elif request.action == "partition":
                self.partitioned = True
            elif request.action == "heal":
                self.partitioned = False
                self.slow_seconds = 0.0
            elif request.action == "slow":
                self.slow_seconds = float(
                    request.delay_seconds
                    if request.delay_seconds is not None
                    else 0.5
                )
            else:
                self.step()
            return AckResponse(info=self.stats())
        self._check_available(request.op)
        if isinstance(request, BlockPutRequest):
            blocks = request.blocks.split(len(request.keys))
            for key, data in zip(request.keys, blocks):
                self.store.put(key, data)
            return AckResponse()
        if isinstance(request, BlockFetchRequest):
            held: list[bytes] = []
            missing: list[str] = []
            for key in request.keys:
                try:
                    held.append(self.store.get(key))
                except KeyError:
                    missing.append(key)
            return BlockRunResponse(blocks=BlockRun.of(held), missing=tuple(missing))
        if isinstance(request, BlockDeleteRequest):
            return AckResponse(
                info={"deleted": sum(map(self.store.delete, request.keys))}
            )
        if isinstance(request, BlockListRequest):
            return KeyListResponse(
                keys=tuple(self.store.keys(request.prefix))
            )
        raise ProtocolError(
            f"op {request.op!r} is not served by a storage node",
            code="unknown_op",
        )


def _handle_row(endpoint, request: Request) -> Response:
    return endpoint.service.handle(request)


# A node's own ops, beside the archive-service rows it implements
# (``ping``, ``stats``, ``metrics.snapshot``).
NODE_ROWS = dict.fromkeys(
    (
        NodeAdminRequest,
        BlockPutRequest,
        BlockFetchRequest,
        BlockDeleteRequest,
        BlockListRequest,
    ),
    _handle_row,
)


async def start_storage_node(
    node: StorageNode,
    host: str = "127.0.0.1",
    port: int = 0,
) -> asyncio.base_events.Server:
    """Serve a node's RPCs on a TCP port (``port=0`` = ephemeral)."""
    endpoint = node.endpoint()

    def answer(request: Request, envelope: Envelope):
        if envelope.trace is None or (active := tracer()) is None:
            return endpoint(request, envelope)
        # A per-request tracer seeded from the caller's span context
        # mints IDs no other process can collide with, and writes the
        # finished span to this process's trace.
        local = Tracer(
            sink=active,
            seed=context_seed(envelope.trace, "cluster.node", node.node_id),
        )
        with local.start_span(
            f"node.{request.op}",
            parent=envelope.trace,
            activate=False,
            node=node.node_id,
        ):
            return endpoint(request, envelope)

    async def gated(request: Request, envelope: Envelope):
        # A partitioned node accepts the connection but never answers:
        # the request parks here until the partition heals, so callers
        # hit their RPC deadline instead of a clean refusal.
        while node.partitioned:
            await asyncio.sleep(0.01)
        if node.slow_seconds > 0:
            await asyncio.sleep(node.slow_seconds)
        return answer(request, envelope)

    def handler(request: Request, envelope: Envelope):
        # node.admin bypasses the gate: it is the channel that heals.
        gate = node.partitioned or node.slow_seconds > 0
        if gate and not isinstance(request, NodeAdminRequest):
            return gated(request, envelope)
        return answer(request, envelope)

    return await start_line_server(handler, host, port)
