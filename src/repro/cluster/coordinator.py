"""Cluster coordinator: object plane over remote storage nodes.

The coordinator owns everything global — the erasure graph, the
codec, object manifests, the placement ring, and the
:class:`~repro.core.plancache.PlanCache` — while the bytes live on
storage-node processes (:mod:`repro.cluster.node`).  ``put``
encodes an object into stripes and places each block; ``get``
bulk-fetches surviving blocks from the live owners, treats everything
else (dead node, transient node outage, vanished block) as the
stripe's erasure mask, plans once through the shared cache, and
replays the XOR schedule — degraded reads over TCP instead of over a
device array.

Placement is consistent hashing at *stripe* granularity with
code-aware striding inside the stripe: the ring picks each stripe's
anchor member, and graph nodes then stride round-robin across the
membership (the cluster-level analogue of
:func:`~repro.storage.stripe.rotated_placement`).  Striding is what
makes node loss survivable: losing one of N members erases every N-th
graph node of a stripe — a mask the catalog graphs decode for every
anchor and phase at N >= 3 — whereas hashing each block independently
would make it a *random* third of the stripe, which the same graphs
fail to decode a third of the time.  The placement each stripe was
written with is recorded in its manifest, so reads stay correct while
membership drifts; ``repair()`` re-stripes onto the current membership
and updates the records.

Fault semantics mirror the single-process archive:

* a node that answers ``unavailable`` is in a *transient outage* — its
  blocks are intact and excluded from this read only;
* a node that cannot be reached is *down* — possibly dead, and
  ``repair`` will re-derive its blocks from the survivors and
  re-home them onto the current ring.  A node is only declared down
  after the coordinator's :class:`~repro.resilience.retry.RetryPolicy`
  is exhausted and any RPC deadline (``rpc_timeout``) expired — one
  transient network blip no longer kills a link;
* a stripe short of decodable blocks raises
  :class:`~repro.storage.archive.DataLossError` (wire code
  ``data_loss``) — never a silent wrong answer.

Durability: with ``wal_dir`` set, every manifest/placement mutation
(put, join, leave, a repair record per stripe) is journaled through
:class:`~repro.cluster.wal.CoordinatorWal` *before* the operation is
acknowledged, and ``recover=True`` rebuilds the coordinator from
snapshot + replay.  The live path *is* the replay path: an operation
builds its WAL record and commits it (append, then apply through the
function recovery replays the log with, then snapshot if due), so
memory never runs ahead of the log and a recovered coordinator equals
the live one by construction.  :meth:`ClusterCoordinator.state_sha256` digests
the canonical metadata state so recovery can be verified byte-for-byte
against an uninterrupted run.  A crash between block placement and the
put journal record leaves orphaned blocks on the nodes — harmless,
because the put was never acknowledged and repair deletes strays.

Repair is delegated to the
:class:`~repro.cluster.scheduler.RepairScheduler`: an at-risk-first
per-stripe queue, budgeted per cycle, preemptible by foreground reads,
repaired in byte-capped waves (:meth:`ClusterCoordinator._repair_stripes`).
A wave holds only its own stripes' locks (no whole-pass cluster lock),
so ``get`` interleaves with an active rebuild.  All cross-node
repair traffic is metered as ``cluster.repair.bytes`` (total, plus
``cluster.repair.bytes.<node_id>`` attributed to the receiving node) —
the repair-bandwidth metric the archival-storage literature prices
nodes by — and journaled, so repair-byte accounting survives a
coordinator crash.

Tracing: request handlers run under the caller's shipped context, node
RPCs get child spans whose contexts travel in the RPC frames, and span
records the nodes ship back are ingested here — so one coordinator
trace file holds the full coordinator+node half of the cluster-wide
span tree, parented under the client's spans.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from ..core.codec import DecodeFailure, TornadoCodec, stripe_rows
from ..core.decoder import _evaluate_headroom, make_batch_decoder
from ..core.graph import ErasureGraph
from ..core.plancache import PlanCache
from ..obs.registry import registry
from ..obs.trace import start_span, tracer
from ..resilience.retry import NO_RETRY, RetryPolicy
from ..serve.lineserver import (
    ArchiveEndpoint,
    start_line_server,
    within_deadline,
)
from ..serve.errors import NodeUnreachableError
from ..serve.link import PipelinedLink, check_rpc_timeout
from ..serve.protocol import (
    AckResponse,
    BlockDeleteRequest,
    BlockFetchRequest,
    BlockListRequest,
    BlockPutRequest,
    ClusterJoinRequest,
    ClusterLeaveRequest,
    ClusterRepairStatusRequest,
    ClusterSnapshotRequest,
    ErrorResponse,
    FetchStripeRequest,
    ObjectInfoResponse,
    PingRequest,
    RepairRequest,
    Request,
    Response,
    StatsRequest,
    StatusResponse,
    StripeBlocksResponse,
    encode_request,
    parse_response,
)
from ..storage.archive import DataLossError
from ..storage.blockstore import block_key
from ..storage.device import TransientUnavailableError
from .ring import HashRing
from .scheduler import TOTAL_KEYS, RepairScheduler
from .wal import CoordinatorWal, WalCorruptError

__all__ = ["ClusterCoordinator", "ClusterManifest", "start_coordinator"]


@dataclass(frozen=True)
class ClusterStripe:
    """One stored stripe: index, framing, and recorded placement.

    ``placement[j]`` is the node id holding graph node ``j``'s block —
    the membership striding in force when the stripe was last written
    or repaired.  Reads trust the record, not the current ring, so
    membership changes never corrupt reads that race a repair.
    """

    index: int
    payload_length: int
    placement: tuple[str, ...]


@dataclass(frozen=True)
class ClusterManifest:
    """Everything the coordinator must remember about one object."""

    name: str
    size: int
    sha256: str
    stripes: tuple[ClusterStripe, ...]

    def to_wire(self) -> dict[str, Any]:
        """The JSON shape a WAL ``put`` record and a snapshot carry."""
        return {
            "size": self.size,
            "sha256": self.sha256,
            "stripes": [
                [s.index, s.payload_length, list(s.placement)]
                for s in self.stripes
            ],
        }

    @classmethod
    def from_wire(cls, name: str, wire: dict[str, Any]) -> ClusterManifest:
        return cls(
            name=name,
            size=int(wire["size"]),
            sha256=wire["sha256"],
            stripes=tuple(
                ClusterStripe(
                    index=int(index),
                    payload_length=int(payload_length),
                    placement=tuple(placement),
                )
                for index, payload_length, placement in wire["stripes"]
            ),
        )


@dataclass
class _WaveStripe:
    """One stripe of a repair wave, filled in as the wave's steps run."""

    name: str
    record: ClusterStripe
    desired: tuple[str, ...]
    keys: list[str]
    need: list[int]  # graph nodes whose desired owner lacks the block
    blocks: np.ndarray | None = None
    rebuilt: set[int] = field(default_factory=set)
    place: list[int] = field(default_factory=list)
    complete: bool = True  # every row fetched or recovered


class NodeDownError(NodeUnreachableError):
    """A storage node could not be reached (distinct from an outage)."""


class NodeLink(PipelinedLink):
    """One registered storage node and its (lazy) RPC connection."""

    down_error = NodeDownError
    family = "cluster.rpc"

    def __init__(self, node_id: str, host: str, port: int):
        super().__init__(host, port, f"node {node_id!r}", node=node_id)
        self.node_id = node_id


async def link_rpc(
    link: PipelinedLink,
    request: Request,
    *,
    retry: RetryPolicy | None,
    timeout: float | None,
) -> Response:
    """:func:`link_rpc_many` for one request; raises its failure."""
    (outcome,) = await link_rpc_many(
        link, [request], retry=retry, timeout=timeout
    )
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


async def link_rpc_many(
    link: PipelinedLink,
    requests: Sequence[Request],
    *,
    retry: RetryPolicy | None,
    timeout: float | None,
) -> list[Response | Exception]:
    """Requests to one peer as one burst; each keeps its own id, span
    and outcome: its response, its remote error as the client exception
    (never retried here), or the link's ``down_error``.  A transport
    failure retries only the unanswered requests through ``retry.acall``
    (a healthy burst never draws the schedule); once attempts run out
    the link drops and those keep their ``down_error``.
    """
    outcomes: list[Response | Exception | None] = [None] * len(requests)
    todo = list(range(len(requests)))  # the requests still unanswered

    async def attempt() -> None:
        nonlocal todo
        got = await _link_burst_once(link, [requests[i] for i in todo], timeout)
        for i, outcome in zip(todo, got):
            outcomes[i] = outcome
        todo = [i for i in todo if isinstance(outcomes[i], link.down_error)]
        if todo:
            raise outcomes[todo[0]]

    try:
        await (retry or NO_RETRY).acall(
            attempt, retry_on=link.down_error, counter=f"{link.family}.retries"
        )
    except link.down_error:
        link.drop()
    return outcomes


async def _link_burst_once(
    link: PipelinedLink, requests: Sequence[Request], timeout: float | None
) -> list[Response | Exception]:
    spans, items = [], []
    try:
        for request in requests:
            span = start_span(
                f"{link.family}.{request.op}", activate=False, **link.span_tags
            )
            spans.append(span)
            request_id = link.next_id()
            data = encode_request(
                request, request_id=request_id, trace=span.context() if span else None
            )
            items.append((request_id, data))
        replies = await link.exchange_many(items, timeout)
    except BaseException as exc:
        for span in spans:
            span.end(error=type(exc).__name__)
        raise
    outcomes: list[Response | Exception] = []
    for span, reply in zip(spans, replies):
        try:
            if isinstance(reply, Exception):
                raise reply
            link.alive = True
            response, frame = parse_response(*reply)
            t = tracer()
            if t is not None and frame.get("spans"):
                t.ingest(frame["spans"])
            if isinstance(response, ErrorResponse):
                response.raise_remote()
            outcomes.append(response)
        except Exception as exc:  # this request's outcome, not the burst's
            span.end(error=type(exc).__name__)
            outcomes.append(exc)
        finally:
            span.end()
    return outcomes


# The default transport-retry policy of every pipelined link (node or
# site): one quick retry after a short seeded backoff, so a single blip
# survives without inflating every genuinely-dead-peer path by seconds.
DEFAULT_RETRY = RetryPolicy(
    max_attempts=2, base_delay=0.05, max_delay=0.5, jitter=0.1, seed=0
)


class ClusterCoordinator:
    """Placement, reconstruction, and repair over remote block stores."""

    def __init__(
        self,
        graph: ErasureGraph,
        *,
        block_size: int = 4096,
        plan_capacity: int = 256,
        wal_dir: str | os.PathLike | None = None,
        recover: bool = False,
        retry: RetryPolicy | None = DEFAULT_RETRY,
        rpc_timeout: float | None = 30.0,
        repair_bytes_per_cycle: int | None = None,
        snapshot_every: int | None = None,
    ):
        check_rpc_timeout(rpc_timeout)
        if snapshot_every is not None and snapshot_every < 1:
            raise ValueError("snapshot_every must be positive")
        self.graph = graph
        self.plans = PlanCache(plan_capacity)
        self.codec = TornadoCodec(graph, block_size, self.plans)
        # Batch what-if probes (decode_headroom) run through the
        # graph's batch kernel; scalar reads keep the PlanCache path.
        self._headroom_decoder = make_batch_decoder(graph)
        self.ring = HashRing()
        self.nodes: dict[str, NodeLink] = {}
        self.manifests: dict[str, ClusterManifest] = {}
        self._next_stripe = 0
        self._mutex = asyncio.Lock()
        # Per-stripe repair/read locks (created on demand), so repair
        # of one stripe never stalls reads of another.
        self._stripe_locks: dict[tuple[str, int], asyncio.Lock] = {}
        self.reads_inflight = 0
        self.retry = retry
        self.rpc_timeout = rpc_timeout
        self.snapshot_every = snapshot_every
        # Repair-bandwidth accounting lives on the coordinator itself
        # (status() must report it even when the metrics registry is
        # the disabled null implementation) and is mirrored into the
        # registry for Prometheus scrapes.
        self.repair_bytes = 0
        self.repair_bytes_by_node: dict[str, int] = {}
        self.scheduler = RepairScheduler(
            self, bytes_per_cycle=repair_bytes_per_cycle
        )
        self.wal: CoordinatorWal | None = None
        if wal_dir is not None:
            self.wal = CoordinatorWal(wal_dir, fresh=not recover)
            if recover:
                self._recover()

    # ------------------------------------------------------------------
    # Durability: journaling, recovery, canonical state
    # ------------------------------------------------------------------

    def _commit(self, *records: dict[str, Any]) -> None:
        """The single writer: append, apply, snapshot if due.

        Every metadata mutation — live or replayed — is one WAL record
        run through :meth:`_apply_record`; the live callers only build
        the records.  Append comes first (one call, one fsync for all
        of them), so a failed append raises with memory untouched; the
        snapshot comes last, because one taken between append and apply
        would truncate away a record it does not yet reflect.
        """
        if self.wal is not None:
            self.wal.append(*records)
        for record in records:
            self._apply_record(record)
        if (
            self.wal is not None
            and self.snapshot_every is not None
            and self.wal.records_since_snapshot >= self.snapshot_every
        ):
            self.wal.snapshot(self.state_dict())

    def _recover(self) -> None:
        state, records = self.wal.load()
        if state is not None:
            self._restore_state(state)
        for record in records:
            self._apply_record(record)
        registry().counter("cluster.wal.recoveries").inc()

    def _restore_state(self, state: dict[str, Any]) -> None:
        self._next_stripe = int(state["next_stripe"])
        for node_id, host, port in state["members"]:
            self.ring.add(node_id)
            self.nodes[node_id] = NodeLink(node_id, host, int(port))
        for name, wire in state["manifests"].items():
            self.manifests[name] = ClusterManifest.from_wire(name, wire)
        self.repair_bytes = int(state["repair_bytes"])
        self.repair_bytes_by_node = {
            nid: int(n)
            for nid, n in state["repair_bytes_by_node"].items()
        }

    def _apply_record(self, record: dict[str, Any]) -> None:
        """Apply one WAL record — the only code that mutates metadata."""
        kind = record.get("type")
        if kind == "put":
            name = record["name"]
            self.manifests[name] = ClusterManifest.from_wire(name, record)
            self._next_stripe = max(
                self._next_stripe, int(record["next_stripe"])
            )
        elif kind == "repair":
            name = record["name"]
            manifest = self.manifests.get(name)
            if manifest is None:
                raise WalCorruptError(
                    f"WAL repair record {record.get('seq')} references "
                    f"unknown object {name!r}"
                )
            if record.get("placement") is not None:
                self.manifests[name] = replace(
                    manifest,
                    stripes=tuple(
                        replace(s, placement=tuple(record["placement"]))
                        if s.index == record["index"]
                        else s
                        for s in manifest.stripes
                    ),
                )
            self.repair_bytes += int(record.get("moved_bytes", 0)) + int(
                record.get("rebuilt_bytes", 0)
            )
            for nid, nbytes in record.get("by_node", {}).items():
                self.repair_bytes_by_node[nid] = (
                    self.repair_bytes_by_node.get(nid, 0) + int(nbytes)
                )
        elif kind == "join":
            node_id = record["node_id"]
            self.ring.add(node_id)
            link = self.nodes.get(node_id)
            if link is None:
                self.nodes[node_id] = NodeLink(
                    node_id, record["host"], int(record["port"])
                )
            else:
                link.host = record["host"]
                link.port = int(record["port"])
        elif kind == "leave":
            node_id = record["node_id"]
            if node_id in self.ring:
                self.ring.remove(node_id)
            self.nodes.pop(node_id, None)
        else:
            raise WalCorruptError(
                f"WAL record {record.get('seq')} has unknown type "
                f"{kind!r}"
            )

    def state_dict(self) -> dict[str, Any]:
        """Canonical JSON-safe metadata state (digest input)."""
        return {
            "next_stripe": self._next_stripe,
            "members": [
                [nid, self.nodes[nid].host, self.nodes[nid].port]
                for nid in self.ring.members
            ],
            "manifests": {
                name: m.to_wire()
                for name, m in sorted(self.manifests.items())
            },
            "repair_bytes": self.repair_bytes,
            "repair_bytes_by_node": {
                nid: self.repair_bytes_by_node[nid]
                for nid in sorted(self.repair_bytes_by_node)
            },
        }

    def state_sha256(self) -> str:
        """Digest of the canonical state: recovery's byte-for-byte proof."""
        payload = json.dumps(
            self.state_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def snapshot_now(self) -> dict[str, Any]:
        """Write a snapshot and truncate the journal (``cluster.snapshot``)."""
        if self.wal is None:
            raise ValueError(
                "coordinator has no write-ahead log configured"
            )
        seq = self.wal.snapshot(self.state_dict())
        return {"seq": seq, **self.wal.stats()}

    # ------------------------------------------------------------------
    # Node RPC plumbing
    # ------------------------------------------------------------------

    async def _rpc(self, link: NodeLink, request: Request) -> Response:
        return await link_rpc(
            link, request, retry=self.retry, timeout=self.rpc_timeout
        )

    async def _rpc_many(
        self, link: NodeLink, requests: Sequence[Request]
    ) -> list[Response | Exception]:
        return await link_rpc_many(
            link, requests, retry=self.retry, timeout=self.rpc_timeout
        )

    def _reset_connection(self, link: NodeLink) -> None:
        """Forget the connection but keep the liveness verdict open."""
        link.reset()

    def _live_links(self) -> list[NodeLink]:
        return [
            self.nodes[nid]
            for nid in self.ring.members
            if self.nodes[nid].alive
        ]

    async def probe(self) -> dict[str, bool]:
        """Ping every registered node at once, refreshing liveness flags."""

        async def ping(link: NodeLink) -> bool:
            try:
                await self._rpc(link, PingRequest())
                return True
            except (NodeDownError, OSError):
                return False

        members = self.ring.members
        alive = await asyncio.gather(
            *(ping(self.nodes[node_id]) for node_id in members)
        )
        return dict(zip(members, alive))

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    async def register(
        self, node_id: str, host: str, port: int
    ) -> dict[str, Any]:
        """Add (or re-add) a node and re-shard onto the new ring."""
        async with self._mutex:
            self._commit(
                {
                    "type": "join",
                    "node_id": node_id,
                    "host": host,
                    "port": port,
                }
            )
            link = self.nodes[node_id]
            # A rejoin after a kill: forget the stale connection.
            link.reset()
            link.alive = True
        summary = await self.scheduler.drain()
        summary["node_id"] = node_id
        summary["members"] = list(self.ring.members)
        return summary

    async def deregister(self, node_id: str) -> dict[str, Any]:
        """Remove a node from the ring and re-home its blocks."""
        async with self._mutex:
            if node_id not in self.ring:
                raise KeyError(f"no cluster node named {node_id!r}")
            link = self.nodes[node_id]
            self._commit({"type": "leave", "node_id": node_id})
            link.drop()
        summary = await self.scheduler.drain()
        summary["node_id"] = node_id
        summary["members"] = list(self.ring.members)
        return summary

    # ------------------------------------------------------------------
    # Object plane
    # ------------------------------------------------------------------

    def _stripe_placement(
        self, name: str, stripe_index: int
    ) -> tuple[str, ...]:
        """Anchor the stripe on the ring, stride blocks across members."""
        members = self.ring.members
        if not members:
            raise TransientUnavailableError(
                "cluster has no storage nodes"
            )
        anchor = members.index(
            self.ring.owner(f"{name}/{stripe_index}")
        )
        count = len(members)
        return tuple(
            members[(anchor + j) % count]
            for j in range(self.graph.num_nodes)
        )

    def _stripe_lock(self, name: str, index: int) -> asyncio.Lock:
        key = (name, index)
        lock = self._stripe_locks.get(key)
        if lock is None:
            lock = self._stripe_locks[key] = asyncio.Lock()
        return lock

    async def put(self, name: str, payload: bytes) -> dict[str, Any]:
        """Encode an object and place every block by stripe striding.

        The manifest is journaled *after* the blocks are placed but
        *before* the put is acknowledged: a crash in between leaves
        orphaned blocks (the put was never acked — repair deletes
        strays), never an acked object the WAL forgot.  A stripe whose
        placed blocks do not decode fails the put, unjournaled.
        """
        if not self.ring.members:
            raise TransientUnavailableError(
                "cluster has no storage nodes"
            )
        async with self._mutex:
            stripes = self.codec.encode_payload(payload)
            records: list[ClusterStripe] = []
            placed = 0
            next_stripe = self._next_stripe
            for encoded in stripes:
                idx = next_stripe
                next_stripe += 1
                placement = self._stripe_placement(name, idx)
                records.append(
                    ClusterStripe(
                        index=idx,
                        payload_length=encoded.payload_length,
                        placement=placement,
                    )
                )
                # One one-block request per graph node (the benchmark
                # pins a put at 96 RPCs), sent as one burst per owner.
                owned: dict[str, list[int]] = {}
                for node, owner in enumerate(placement):
                    owned.setdefault(owner, []).append(node)
                acks = await asyncio.gather(
                    *(
                        self._put_blocks(owner, [
                            {block_key(name, idx, node): encoded.blocks[node].data}
                            for node in nodes
                        ])
                        for owner, nodes in owned.items()
                    )
                )
                landed = np.zeros(self.graph.num_nodes, dtype=bool)
                for nodes, oks in zip(owned.values(), acks):
                    landed[nodes] = oks
                if not landed.all():
                    try:  # ack only what a read could decode
                        self.codec.schedule(landed)
                    except DecodeFailure:
                        raise TransientUnavailableError(
                            f"object {name!r} stripe {idx}: {landed.sum()} of "
                            f"{landed.size} blocks placed, not decodable"
                        ) from None
                placed += int(landed.sum())
            manifest = ClusterManifest(
                name=name,
                size=len(payload),
                sha256=hashlib.sha256(payload).hexdigest(),
                stripes=tuple(records),
            )
            self._commit(
                {
                    "type": "put",
                    "name": name,
                    **manifest.to_wire(),
                    "next_stripe": next_stripe,
                }
            )
        failed = len(records) * self.graph.num_nodes - placed
        reg = registry()
        reg.counter("cluster.put.objects").inc()
        reg.counter("cluster.put.blocks").inc(placed)
        if failed:
            # Tolerated: the code decodes around them, and repair will
            # rebuild them — but never silently.
            reg.counter("cluster.put.failed_blocks").inc(failed)
        return {
            "name": name,
            "size": manifest.size,
            "sha256": manifest.sha256,
            "stripes": len(records),
            "blocks": placed,
            "failed_blocks": failed,
        }

    async def _put_blocks(
        self, node_id: str, batches: list[dict[str, bytes | memoryview]]
    ) -> list[bool]:
        """One ``block.put`` per batch to one node, all in one burst;
        whether each batch landed (whole: a batch lands or none of it)."""
        link = self.nodes.get(node_id)
        if link is None or not link.alive:
            return [False] * len(batches)
        outcomes = await self._rpc_many(
            link, [BlockPutRequest(blocks=blocks) for blocks in batches]
        )
        for outcome in outcomes:
            if isinstance(outcome, Exception) and not isinstance(
                outcome, (NodeDownError, TransientUnavailableError)
            ):
                raise outcome
        return [not isinstance(o, Exception) for o in outcomes]

    async def get(
        self,
        name: str,
        *,
        want_payload: bool = False,
        deadline: float | None = None,
    ) -> ObjectInfoResponse:
        """Reconstruct an object from whatever the cluster still holds.

        ``deadline`` (seconds) abandons the read with
        :class:`~repro.serve.errors.DeadlineExceededError`.
        """
        return await within_deadline(
            self._get(name, want_payload), deadline
        )

    async def _get(self, name: str, want_payload: bool) -> ObjectInfoResponse:
        manifest = self._manifest(name)
        started = time.perf_counter()
        self.reads_inflight += 1
        try:
            parts: list[bytes] = []
            degraded = False
            for record in manifest.stripes:
                data, was_degraded = await self._read_stripe(
                    name, record
                )
                degraded = degraded or was_degraded
                parts.append(data[: record.payload_length])
        finally:
            self.reads_inflight -= 1
        payload = b"".join(parts)
        reg = registry()
        reg.counter("cluster.get.objects").inc()
        reg.histogram("cluster.get.seconds").observe(
            time.perf_counter() - started
        )
        if degraded:
            reg.counter("cluster.get.degraded").inc()
        return ObjectInfoResponse(
            name=name,
            size=len(payload),
            sha256=hashlib.sha256(payload).hexdigest(),
            payload=payload if want_payload else None,
        )

    async def _read_stripe(
        self, name: str, record: ClusterStripe
    ) -> tuple[bytes, bool]:
        async with self._stripe_lock(name, record.index):
            blocks, present = await self._fetch_stripe(name, record)
        try:
            data = self.codec.decode_blocks(blocks, present)
        except DecodeFailure as exc:
            raise self._stripe_error(
                name, record.index, exc.residual
            ) from exc
        return data.tobytes(), not present.all()

    async def _fetch_stripe(
        self, name: str, record: ClusterStripe
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bulk-fetch one stripe's blocks from its *recorded* owners.

        Call with the stripe lock held.  The record is looked up again
        here, under the lock: a repair that held it while this reader
        waited may have re-sharded the stripe, and the placement the
        reader captured then names owners whose copies are deleted.
        """
        record = self._stripe_record(name, record.index) or record
        keys = {
            block_key(name, record.index, node): node
            for node in range(self.graph.num_nodes)
        }
        assignment: dict[str, list[str]] = {}
        for key, node in keys.items():
            assignment.setdefault(record.placement[node], []).append(key)
        return await self._fetch_blocks(assignment, keys)

    async def _fetch_blocks(
        self, assignment: dict[str, list[str]], keys: dict[str, int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fetch ``assignment[node_id] -> keys`` concurrently.

        Returns the (blocks, present) pair the decoder wants, one row
        per entry of ``keys`` (key -> row): one stripe's for a read, a
        whole wave's, stripe after stripe, for repair.  A dead,
        unreachable, or interrupted node simply contributes nothing to
        ``present`` — absence *is* the erasure mask.
        """

        async def fetch(node_id: str, wanted: list[str]) -> dict[str, bytes]:
            link = self.nodes.get(node_id)
            if link is None or not link.alive:
                return {}
            try:
                response = await self._rpc(
                    link, BlockFetchRequest(keys=tuple(sorted(wanted)))
                )
            except (NodeDownError, TransientUnavailableError):
                return {}
            return response.blocks or {}

        fetched = await asyncio.gather(
            *(fetch(nid, ks) for nid, ks in sorted(assignment.items()))
        )
        # A reply is not trusted: an unrequested key (no node of this
        # stripe) or a wrong-sized block is one more erasure.
        blocks, present, malformed = stripe_rows(
            (
                (keys.get(key, -1), data)
                for held in fetched
                for key, data in held.items()
            ),
            len(keys),
            self.codec.block_size,
        )
        if malformed:
            registry().counter("cluster.fetch.malformed_blocks").inc(
                malformed
            )
        return blocks, present

    async def fetch_stripe_raw(
        self, name: str, seq: int
    ) -> StripeBlocksResponse:
        """Surviving raw blocks of stripe ordinal ``seq`` of an object.

        The federation gateway's coupled-decode path: when this site's
        erasure is locally uncoverable, the gateway pulls whatever
        blocks *do* survive here and XORs them together with another
        site's partial stripe.  No decoding happens on this side — a
        site that cannot decode alone still answers.  A negative ``seq``
        raises ``ValueError``, as the wire row refuses it.
        """
        if seq < 0:
            raise ValueError(f"stripe ordinal must be non-negative, got {seq}")
        manifest = self._manifest(name)
        if seq >= len(manifest.stripes):
            raise KeyError(
                f"object {name!r} has no stripe ordinal {seq}"
            )
        record = manifest.stripes[seq]
        async with self._stripe_lock(name, record.index):
            blocks, present = await self._fetch_stripe(name, record)
        held = {
            str(node): blocks[node].data
            for node in np.flatnonzero(present).tolist()
        }
        registry().counter("cluster.fetch_stripe.blocks").inc(len(held))
        return StripeBlocksResponse(
            name=name,
            seq=seq,
            payload_length=record.payload_length,
            blocks=held,
        )

    def _stripe_error(
        self, name: str, stripe_index: int, residual
    ) -> Exception:
        """Classify an undecodable stripe: outage-blocked vs real loss."""
        dark = [
            nid
            for nid in self.ring.members
            if not self.nodes[nid].alive
        ]
        if dark:
            return TransientUnavailableError(
                f"object {name!r} stripe {stripe_index}: undecodable "
                f"while nodes {dark} are unreachable (retry or repair "
                "may succeed)"
            )
        return DataLossError(name, stripe_index, residual)

    def _stripe_record(self, name: str, index: int) -> ClusterStripe | None:
        """Stripe ``index`` as the manifest records it now, if it does.

        ``put`` numbers an object's stripes consecutively, so a record
        sits at its index's offset from the first — no scan per read.
        """
        manifest = self.manifests.get(name)
        if manifest is None:
            return None
        stripes = manifest.stripes
        at = index - stripes[0].index
        found = 0 <= at < len(stripes) and stripes[at].index == index
        return stripes[at] if found else None

    def _manifest(self, name: str) -> ClusterManifest:
        try:
            return self.manifests[name]
        except KeyError:
            raise KeyError(f"no cluster object named {name!r}") from None

    # ------------------------------------------------------------------
    # Repair / re-shard
    # ------------------------------------------------------------------

    async def repair(self, mode: str = "drain") -> dict[str, Any]:
        """Run the repair scheduler: scan, cycle, or drain to empty.

        ``drain`` (the default and the pre-scheduler behaviour) scans
        and repairs until the queue is empty; ``scan`` only refreshes
        the queue from a probe+inventory scrub; ``cycle`` repairs one
        bytes-budgeted increment.  Any other mode raises ``ValueError``
        before anything runs, as the ``repair`` wire row refuses it.
        """
        if mode not in RepairRequest._MODES:
            raise ValueError(
                f"repair mode must be one of {RepairRequest._MODES}, "
                f"got {mode!r}"
            )
        if mode == "scan":
            queued = await self.scheduler.scan()
            return {
                "queued": queued,
                "queue_depth": self.scheduler.queue_depth,
            }
        if mode == "cycle":
            return await self.scheduler.run_cycle()
        return await self.scheduler.drain()

    def repair_status(self) -> dict[str, Any]:
        """The ``cluster.repair_status`` op: scheduler introspection."""
        return self.scheduler.status()

    async def _inventory(self) -> dict[str, set[str]]:
        """key -> set of live node ids currently holding it."""

        async def listing(link: NodeLink) -> tuple[str, ...]:
            try:
                return (await self._rpc(link, BlockListRequest())).keys
            except (NodeDownError, TransientUnavailableError):
                return ()

        links = self._live_links()
        listings = await asyncio.gather(*map(listing, links))
        holders: dict[str, set[str]] = {}
        for link, keys in zip(links, listings):
            for key in keys:
                holders.setdefault(key, set()).add(link.node_id)
        return holders

    async def _repair_stripes(
        self,
        stripes: list[tuple[str, int]],
        holders: dict[str, set[str]],
    ) -> dict[str, int]:
        """Re-stripe a wave of ``(name, index)`` stripes onto the ring.

        Blocks already held somewhere are *moved* to their new owner;
        blocks no live node holds are replayed from the survivors and
        *rebuilt*.  The wave takes every one of its stripe locks in
        ``(name, index)`` order and looks each record up again under
        them, so a read waits for at most one wave.  One gathered
        ``block.fetch`` per holder reads every stripe with work (one
        live holder per key) and :meth:`TornadoCodec.recover` runs once
        per damaged stripe.  Then three barriers on the pipelined
        links, each one RPC per node for the whole wave: place every
        moved and rebuilt block, one ``block.put`` batch per new owner;
        flip and journal — a stripe flips to its new placement only
        once every one of its blocks sits with its new owner, so a
        stripe with a block in a failed batch journals the bytes that
        landed, leaves reads on the old placement, and the next repair
        retries — one ``repair`` record per stripe, all in one WAL
        append; then delete the strays of every stripe whose blocks all
        sit with their owners, one ``block.delete`` batch per holder.
        Strays go last so that a crash anywhere leaves every journaled
        owner holding its block (the next scan queues whatever strays
        it left behind).

        Returns the wave's share of the scheduler's totals.
        """
        n, size = self.graph.num_nodes, self.codec.block_size
        stats = dict.fromkeys(TOTAL_KEYS, 0)
        async with contextlib.AsyncExitStack() as locks:
            for name, index in sorted(stripes):
                await locks.enter_async_context(self._stripe_lock(name, index))
            wave: list[_WaveStripe] = []
            for name, index in stripes:
                record = self._stripe_record(name, index)
                if record is None:  # the object was replaced meanwhile
                    continue
                desired = self._stripe_placement(name, index)
                keys = [block_key(name, index, node) for node in range(n)]
                need = [
                    node
                    for node in range(n)
                    if desired[node] not in holders.get(keys[node], ())
                ]
                wave.append(_WaveStripe(name, record, desired, keys, need))
            work = [s for s in wave if s.need]
            rows: dict[str, int] = {}
            assignment: dict[str, list[str]] = {}
            for s in work:
                for key in s.keys:
                    rows[key] = len(rows)
                    for nid in sorted(holders.get(key, ())):
                        link = self.nodes.get(nid)
                        if link is not None and link.alive:
                            assignment.setdefault(nid, []).append(key)
                            break
            blocks, present = await self._fetch_blocks(assignment, rows)
            batches: dict[str, dict[str, memoryview]] = {}
            for s, got, have in zip(
                work, blocks.reshape(-1, n, size), present.reshape(-1, n)
            ):
                lost = np.flatnonzero(~have)
                if lost.size:
                    try:
                        got = self.codec.recover(got, have)
                        have[lost] = True
                    except DecodeFailure:
                        stats["unrepairable_blocks"] += int(lost.size)
                        registry().counter(
                            "cluster.repair.data_loss_stripes"
                        ).inc()
                s.blocks, s.rebuilt = got, set(lost.tolist())
                s.complete = bool(have.all())
                s.place = [node for node in s.need if have[node]]
                for node in s.place:
                    batches.setdefault(s.desired[node], {})[s.keys[node]] = (
                        got[node].data
                    )
            acks = await asyncio.gather(
                *(self._put_blocks(nid, [b]) for nid, b in batches.items())
            )
            landed = {nid: ok for nid, (ok,) in zip(batches, acks)}
            records: list[dict[str, Any]] = []
            settled: list[_WaveStripe] = []
            for s in wave:
                by_node: dict[str, int] = {}
                booked = {"moved_bytes": 0, "rebuilt_bytes": 0}
                for node in s.place:
                    owner = s.desired[node]
                    if not landed[owner]:
                        continue
                    nbytes = s.blocks[node].nbytes
                    holders.setdefault(s.keys[node], set()).add(owner)
                    self._meter_repair(owner, nbytes)
                    by_node[owner] = by_node.get(owner, 0) + nbytes
                    kind = "rebuilt" if node in s.rebuilt else "moved"
                    stats[f"{kind}_blocks"] += 1
                    booked[f"{kind}_bytes"] += nbytes
                for key, value in booked.items():
                    stats[key] += value
                placed_all = s.complete and all(
                    landed[s.desired[node]] for node in s.place
                )
                flipped = placed_all and s.desired != s.record.placement
                if flipped or by_node:
                    # A partial repair (placement None) moved bytes
                    # without flipping the record; the journal still
                    # carries the byte accounting so it survives a crash.
                    records.append(
                        {
                            "type": "repair",
                            "name": s.name,
                            "index": s.record.index,
                            "placement": list(s.desired) if flipped else None,
                            **booked,
                            "by_node": {
                                nid: by_node[nid] for nid in sorted(by_node)
                            },
                        }
                    )
                if placed_all:
                    settled.append(s)
            if records:
                self._commit(*records)
                stats["repaired_stripes"] = len(records)
            # Every block of a settled stripe sits with its journaled
            # owner: any other copy is redundant now.
            strays: dict[str, list[str]] = {}
            for s in settled:
                for node, key in enumerate(s.keys):
                    for nid in holders.get(key, set()) - {s.desired[node]}:
                        strays.setdefault(nid, []).append(key)

            async def delete(nid: str, doomed: list[str]) -> None:
                link = self.nodes.get(nid)
                if link is not None:
                    try:
                        await self._rpc(
                            link, BlockDeleteRequest(keys=tuple(doomed))
                        )
                    except (NodeDownError, TransientUnavailableError):
                        return
                for key in doomed:
                    holders[key].discard(nid)

            await asyncio.gather(
                *(delete(nid, strays[nid]) for nid in sorted(strays))
            )
        return stats

    def _meter_repair(self, node_id: str, nbytes: int) -> None:
        reg = registry()
        reg.counter("cluster.repair.bytes").inc(nbytes)
        reg.counter(f"cluster.repair.bytes.{node_id}").inc(nbytes)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    async def decode_headroom(self) -> dict[str, Any]:
        """Bulk what-if probe: which node loss would break a stripe?

        The cluster-level analogue of the serve layer's
        ``degraded_headroom``: one erasure case per stored stripe for
        the *current* liveness state, plus one per (stripe, live node)
        for the state after that node additionally dies, all pushed
        through a single batch decode
        (:func:`~repro.core.decoder.make_batch_decoder`).  Hundreds of
        scenarios cost one packed decode call instead of one scalar
        peel each.
        """
        liveness = await self.probe()
        dead = {n for n, alive in liveness.items() if not alive}
        live = [n for n in self.ring.members if n not in dead]
        cases: list[list[int]] = []
        meta: list[tuple[str, int, str | None]] = []
        for name, manifest in self.manifests.items():
            for stripe in manifest.stripes:
                base = [
                    j for j, owner in enumerate(stripe.placement)
                    if owner in dead or owner not in self.nodes
                ]
                cases.append(base)
                meta.append((name, stripe.index, None))
                for node_id in live:
                    extra = [
                        j for j, owner in enumerate(stripe.placement)
                        if owner == node_id
                    ]
                    cases.append(base + extra)
                    meta.append((name, stripe.index, node_id))
        engine = self._headroom_decoder.engine
        _, at_risk, failing_now = _evaluate_headroom(
            self._headroom_decoder, cases, meta
        )
        reg = registry()
        reg.counter("cluster.headroom_probes").inc()
        reg.event(
            "cluster.headroom",
            engine=engine,
            cases=len(cases),
            at_risk=at_risk,
            failing_now=failing_now,
        )
        return {
            "engine": engine,
            "cases": len(cases),
            "dead_nodes": sorted(dead),
            "failing_now": failing_now,
            "at_risk_nodes": at_risk,
        }

    def metrics_snapshot(self) -> dict[str, Any]:
        """Registry snapshot plus coordinator-synthesized gauges.

        The scrape plane's view of this process: everything the local
        registry accumulated, extended with the control-plane facts a
        fleet dashboard needs that only live on coordinator state
        (object counts, membership, repair-queue margins).  Purely
        local — no node RPCs — so a scrape stays cheap and cannot
        wedge on a dark node.
        """
        snap = registry().snapshot()
        sched = self.scheduler
        gauges = snap.setdefault("gauges", {})
        gauges["cluster.objects"] = float(len(self.manifests))
        gauges["cluster.stripes"] = float(
            sum(len(m.stripes) for m in self.manifests.values())
        )
        gauges["cluster.members"] = float(len(self.ring.members))
        gauges["cluster.reads_inflight"] = float(self.reads_inflight)
        gauges["cluster.repair.queue_depth"] = float(sched.queue_depth)
        gauges["cluster.repair.margin_min"] = float(sched.margin_min)
        gauges["cluster.repair.at_risk_stripes"] = float(
            sched.at_risk_stripes
        )
        gauges["cluster.repair.healthy_margin"] = float(
            sched.healthy_margin
        )
        counters = snap.setdefault("counters", {})
        counters.setdefault("cluster.repair.bytes", 0)
        counters["cluster.repair.bytes"] = max(
            counters["cluster.repair.bytes"], self.repair_bytes
        )
        return snap

    async def status(self) -> dict[str, Any]:
        """Cluster-wide view: membership, liveness, stats, repair bytes."""
        liveness = await self.probe()
        nodes: dict[str, Any] = {}
        for node_id in self.ring.members:
            link = self.nodes[node_id]
            entry: dict[str, Any] = {
                "host": link.host,
                "port": link.port,
                "alive": liveness.get(node_id, False),
            }
            if entry["alive"]:
                try:
                    response = await self._rpc(link, StatsRequest())
                    entry["stats"] = response.stats
                except (NodeDownError, TransientUnavailableError):
                    entry["alive"] = False
            nodes[node_id] = entry
        return {
            "nodes": nodes,
            "objects": len(self.manifests),
            "stripes": sum(
                len(m.stripes) for m in self.manifests.values()
            ),
            "repair_bytes": self.repair_bytes,
            "repair_bytes_by_node": dict(self.repair_bytes_by_node),
            "repair": self.scheduler.status(),
            "engine": self._headroom_decoder.engine,
            "state_sha256": self.state_sha256(),
            "wal": self.wal.stats() if self.wal is not None else None,
            "plan_cache": {
                "hits": self.plans.hits,
                "misses": self.plans.misses,
            },
        }


async def _fetch_stripe_row(endpoint, request: FetchStripeRequest):
    with endpoint.span(
        "fetch_stripe", object=request.name, seq=request.seq
    ):
        return await endpoint.service.fetch_stripe_raw(
            request.name, request.seq
        )


async def _repair_status_row(endpoint, request):
    return StatusResponse(status=endpoint.service.repair_status())


async def _snapshot_row(endpoint, request):
    return AckResponse(info=endpoint.service.snapshot_now())


async def _join_row(endpoint, request: ClusterJoinRequest):
    with endpoint.span("join", node=request.node_id):
        info = await endpoint.service.register(
            request.node_id, request.host, request.port
        )
    return AckResponse(info=info)


async def _leave_row(endpoint, request: ClusterLeaveRequest):
    with endpoint.span("leave", node=request.node_id):
        info = await endpoint.service.deregister(request.node_id)
    return AckResponse(info=info)


# The coordinator's own ops, beside the archive-service rows every
# tier shares (:data:`repro.serve.lineserver.SHARED_ROWS`).
COORDINATOR_ROWS = {
    FetchStripeRequest: _fetch_stripe_row,
    ClusterRepairStatusRequest: _repair_status_row,
    ClusterSnapshotRequest: _snapshot_row,
    ClusterJoinRequest: _join_row,
    ClusterLeaveRequest: _leave_row,
}


async def start_coordinator(
    coordinator: ClusterCoordinator,
    host: str = "127.0.0.1",
    port: int = 0,
) -> asyncio.base_events.Server:
    """Serve the coordinator on a TCP port (``port=0`` = ephemeral)."""
    endpoint = ArchiveEndpoint(
        coordinator, "coordinator", spans="cluster", extra=COORDINATOR_ROWS
    )
    return await start_line_server(endpoint, host, port)
