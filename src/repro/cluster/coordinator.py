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
because the put was never acknowledged; repair reclaims them once a
later put moves ``_next_stripe`` past them, as it reclaims a replaced
object's.

Repair is delegated to the
:class:`~repro.cluster.scheduler.RepairScheduler`: an at-risk-first
per-stripe queue, budgeted per cycle, preemptible by foreground reads,
repaired in byte-capped waves (:meth:`ClusterCoordinator._repair_stripes`).
A wave holds only its own stripes' locks (no whole-pass cluster lock),
so ``get`` interleaves with an active rebuild.  All cross-node repair
traffic is journaled as ``repair_bytes`` (total, plus
``repair_bytes_by_node`` per receiving node) — the repair-bandwidth
metric the archival-storage literature prices nodes by — and scraped
as the ``cluster.repair.bytes`` counters.

Tracing: request handlers run under the caller's shipped context, and
node RPCs get child spans whose contexts travel in the RPC frames.
Each node writes its ``node.<op>`` spans to its own trace file;
stitching the files gives the cluster-wide span tree.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import functools
import hashlib
import json
import os
import time
from dataclasses import dataclass, replace
from typing import Any, Sequence

import numpy as np

from .._checks import check_count, check_seconds
from ..core.codec import BlockRun, DecodeFailure, TornadoCodec, stripe_rows
from ..core.decoder import _evaluate_headroom, make_batch_decoder
from ..core.graph import ErasureGraph
from ..obs.registry import registry
from ..obs.trace import start_span
from ..resilience.retry import NO_RETRY, RetryPolicy
from ..serve.lineserver import (
    ArchiveEndpoint,
    start_line_server,
    within_deadline,
)
from ..serve.errors import NodeUnreachableError
from ..serve.link import PipelinedLink
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
    check_port,
    encode_request,
    parse_response,
)
from ..storage.archive import read_stripe
from ..storage.blockstore import block_key
from ..storage.device import TransientUnavailableError
from .ring import HashRing
from .scheduler import TOTAL_KEYS, HolderTable, RepairScheduler
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


class _StripeLock(asyncio.Lock):
    """One stripe's lock, dropped from its table once nobody holds or
    waits for it: the table holds the stripes in use, not every stripe
    ever read.  Enter it straight from ``_stripe_lock``, with no await
    between, so no task keeps an evicted lock."""

    def __init__(self, table: dict, key: tuple[str, int]) -> None:
        super().__init__()
        self._table, self._key, self._users = table, key, 0

    async def __aenter__(self) -> None:
        self._users += 1
        try:
            await self.acquire()
        except BaseException:
            self._leave()
            raise

    async def __aexit__(self, *exc) -> None:
        self.release()
        self._leave()

    def _leave(self) -> None:
        self._users -= 1
        if not self._users:
            del self._table[self._key]


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
    """:func:`link_rpcs` for one request to one peer; raises its failure."""
    ((outcome,),) = await link_rpcs(
        [(link, [request])], retry=retry, timeout=timeout
    )
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


async def link_rpcs(
    bursts: Sequence[tuple[PipelinedLink, Sequence[Request]]],
    *,
    retry: RetryPolicy | None,
    timeout: float | None,
) -> list[list[Response | Exception]]:
    """A burst of requests per peer, all sent in one loop turn and
    awaited by the caller under one deadline timer: no task per peer.

    Each request keeps its own id, span and outcome: its response, its
    remote error as the client exception (never retried here), or its
    link's ``down_error``.  A deadline drops only the links it finds
    with a request unanswered; ``retry.acall`` resends only those
    requests (a healthy call never draws the schedule), and once
    attempts run out their links drop and they keep their error.
    """
    outcomes: list[list] = [[None] * len(requests) for _, requests in bursts]
    # (link, requests, their outcomes, the indices still unanswered)
    todo = [
        (*burst, out, range(len(out))) for burst, out in zip(bursts, outcomes) if out
    ]

    async def attempt() -> None:
        nonlocal todo
        got = await _rpc_round(
            [(link, [requests[i] for i in left]) for link, requests, _, left in todo],
            timeout,
        )
        for (_, _, out, left), replies in zip(todo, got):
            for i, outcome in zip(left, replies):
                out[i] = outcome
        todo = [
            (link, requests, out, unanswered)
            for link, requests, out, left in todo
            if (unanswered := [i for i in left if isinstance(out[i], link.down_error)])
        ]
        if todo:
            _, _, out, left = todo[0]
            raise out[left[0]]

    try:
        if todo:
            await (retry or NO_RETRY).acall(
                attempt, retry_on=NodeUnreachableError, counter=f"{todo[0][0].family}.retries"
            )
    except NodeUnreachableError:
        for link, *_ in todo:
            link.drop()
    return outcomes


async def _rpc_round(
    bursts: list[tuple[PipelinedLink, list[Request]]], timeout: float | None
) -> list[list[Response | Exception]]:
    """One attempt of :func:`link_rpcs`: every burst sent once, and each
    link's replies parsed once all of them are in."""
    spans, parked, sending, timer = [], [], [], None
    try:
        for link, requests in bursts:
            items = []
            for request in requests:
                name = f"{link.family}.{request.op}"
                span = start_span(name, activate=False, **link.span_tags)
                spans.append(span)
                request_id, trace = link.next_id(), span.context() if span else None
                data = encode_request(request, request_id=request_id, trace=trace)
                items.append((request_id, data))
            replies, task = link.burst(items, timeout)
            parked.append((link, items, replies))
            sending += [task] if task else []
        if timeout is not None:
            loop = asyncio.get_running_loop()
            timer = loop.call_later(timeout, _expire, parked, timeout)
        outcomes, unparsed = [], iter(spans)
        for link, _, replies in parked:
            outcomes.append([])
            for reply, span in zip(replies, unparsed):
                try:
                    frame = await reply
                    link.alive = True
                    response, _ = parse_response(frame)
                    if isinstance(response, ErrorResponse):
                        response.raise_remote()
                    outcomes[-1].append(response)
                except Exception as exc:  # this request's outcome only
                    span.end(error=type(exc).__name__)
                    outcomes[-1].append(exc)
                finally:
                    span.end()
        for task in sending:
            await task
        return outcomes
    except BaseException as exc:
        for span in spans:
            span.end(error=type(exc).__name__)
        raise
    finally:
        if timer is not None:
            timer.cancel()
        for task in sending:
            task.cancel()
        for link, items, replies in parked:
            link.forget(items, replies)


def _expire(parked: list, timeout: float) -> None:
    for link, _, replies in parked:
        link.expire(replies, timeout)


def answered(outcome: Response | Exception) -> Response | None:
    """An RPC's reply, or ``None`` where its peer is out (down, or
    answering ``unavailable``); any other failure raises."""
    if isinstance(outcome, (NodeDownError, TransientUnavailableError)):
        return None
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@functools.lru_cache(maxsize=256)
def _owner_rows(placement: tuple[str, ...]) -> tuple:
    """``(owner, key suffixes, rows)`` per owner of ``placement``, in id
    order; computed once per placement pattern, not per stripe (a
    stripe's block keys are its key prefix plus these suffixes)."""
    held: dict[str, list[int]] = {}
    for node, owner in enumerate(placement):
        held.setdefault(owner, []).append(node)
    owners = []
    for owner, nodes in sorted(held.items()):
        rows = np.array(nodes, dtype=np.intp)
        rows.flags.writeable = False  # every stripe of the pattern shares it
        owners.append((owner, tuple(map(str, nodes)), rows))
    return tuple(owners)


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
        wal_dir: str | os.PathLike | None = None,
        recover: bool = False,
        retry: RetryPolicy | None = DEFAULT_RETRY,
        rpc_timeout: float | None = 30.0,
        repair_bytes_per_cycle: int | None = None,
        snapshot_every: int | None = None,
    ):
        check_seconds(rpc_timeout, "rpc_timeout")
        if snapshot_every is not None:
            check_count(snapshot_every, "snapshot_every", 1)
        self.graph = graph
        self.codec = TornadoCodec(graph, block_size)
        self.plans = self.codec.plans
        # Batch what-if probes (decode_headroom) run through the
        # graph's batch kernel; scalar reads keep the PlanCache path.
        self._headroom_decoder = make_batch_decoder(graph)
        self.ring = HashRing()
        self.nodes: dict[str, NodeLink] = {}
        self.manifests: dict[str, ClusterManifest] = {}
        self._next_stripe = 0
        self._mutex = asyncio.Lock()
        # Per-stripe repair/read locks (created on demand, dropped when
        # idle), so repair of one stripe never stalls reads of another.
        self._stripe_locks: dict[tuple[str, int], _StripeLock] = {}
        self.reads_inflight = 0
        self.retry = retry
        self.rpc_timeout = rpc_timeout
        self.snapshot_every = snapshot_every
        # The journaled repair-bandwidth account; status() and a scrape
        # both read it.
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

    async def _rpcs(
        self, bursts: Sequence[tuple[NodeLink, Sequence[Request]]]
    ) -> list[list[Response | Exception]]:
        """Every node RPC of one step, as :func:`link_rpcs`."""
        return await link_rpcs(
            bursts, retry=self.retry, timeout=self.rpc_timeout
        )

    def _reset_connection(self, link: NodeLink) -> None:
        """Forget the connection but keep the liveness verdict open."""
        link.reset()

    def _live_link(self, node_id: str) -> NodeLink | None:
        link = self.nodes.get(node_id)
        return link if link is not None and link.alive else None

    async def probe(self) -> dict[str, bool]:
        """Ping every registered node at once, refreshing liveness flags."""
        members = self.ring.members
        pongs = await self._rpcs([(self.nodes[nid], [PingRequest()]) for nid in members])
        return {nid: answered(pong) is not None for nid, (pong,) in zip(members, pongs)}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    async def register(
        self, node_id: str, host: str, port: int
    ) -> dict[str, Any]:
        """Add (or re-add) a node and re-shard onto the new ring."""
        check_port(port)
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

    def _stripe_lock(self, name: str, index: int) -> _StripeLock:
        key = (name, index)
        lock = self._stripe_locks.get(key)
        if lock is None:
            lock = self._stripe_locks[key] = _StripeLock(
                self._stripe_locks, key
            )
        return lock

    async def put(self, name: str, payload: bytes) -> dict[str, Any]:
        """Encode an object and place every block by stripe striding.

        The manifest is journaled *after* the blocks are placed but
        *before* the put is acknowledged: a crash in between leaves
        orphaned blocks (the put was never acked), never an acked
        object the WAL forgot.  A stripe whose placed blocks do not
        decode fails the put, unjournaled.  An overwrite takes fresh
        stripe indices; repair reclaims the replaced ones.
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
                prefix = block_key(name, idx, "")
                owners = _owner_rows(placement)
                acks = await self._put_blocks(
                    [
                        (owner, [
                            {prefix + suffix: encoded.blocks[node].data}
                            for suffix, node in zip(suffixes, rows.tolist())
                        ])
                        for owner, suffixes, rows in owners
                    ]
                )
                landed = np.zeros(self.graph.num_nodes, dtype=bool)
                for (_, _, rows), oks in zip(owners, acks):
                    landed[rows] = oks
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
        if failed:
            # Tolerated: the code decodes around them, and repair will
            # rebuild them — but never silently.
            registry().counter("cluster.put.failed_blocks").inc(failed)
        return {
            "name": name,
            "size": manifest.size,
            "sha256": manifest.sha256,
            "stripes": len(records),
            "blocks": placed,
            "failed_blocks": failed,
        }

    async def _put_blocks(
        self, batches: Sequence[tuple[str, list[dict[str, bytes | memoryview]]]]
    ) -> list[list[bool]]:
        """One ``block.put`` per batch, a burst per node, one fan-out;
        per node, whether each batch landed (whole: a batch lands or
        none of it).  A dead or unknown node lands nothing."""
        sends = [(self._live_link(node_id), b) for node_id, b in batches]
        acks = iter(await self._rpcs(
            [(link, [BlockPutRequest.of(x) for x in b]) for link, b in sends if link]
        ))
        return [
            [answered(o) is not None for o in next(acks)] if link else [False] * len(b)
            for link, b in sends
        ]

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
        return await within_deadline(deadline, self._get, name, want_payload)

    async def _get(self, name: str, want_payload: bool) -> ObjectInfoResponse:
        manifest = self._manifest(name)
        started = time.perf_counter()
        self.reads_inflight += 1
        try:
            parts: list[bytes] = []
            degraded = False
            for record in manifest.stripes:
                blocks, present = await self._fetch_stripe(name, record)
                data = read_stripe(
                    self.codec, blocks, present, name=name, index=record.index,
                    dark=lambda: [
                        n for n in self.ring.members if not self.nodes[n].alive
                    ],
                )
                degraded = degraded or not present.all()
                parts.append(data.tobytes()[: record.payload_length])
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

    async def _fetch_stripe(
        self, name: str, record: ClusterStripe
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bulk-fetch one stripe's blocks from its *recorded* owners.

        The record is looked up again under the stripe lock: a repair
        that held it while this reader waited may have re-sharded the
        stripe, and the placement the reader captured then names owners
        whose copies are deleted.
        """
        async with self._stripe_lock(name, record.index):
            record = self._stripe_record(name, record.index) or record
            prefix = block_key(name, record.index, "")
            return await self._fetch_blocks(
                [
                    (owner, tuple(map(prefix.__add__, suffixes)), rows)
                    for owner, suffixes, rows in _owner_rows(record.placement)
                ],
                self.graph.num_nodes,
            )

    async def _fetch_blocks(
        self,
        wanted: Sequence[tuple[str, tuple[str, ...], np.ndarray]],
        count: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One ``block.fetch`` per ``(node_id, keys, rows)``, one fan-out.

        Returns the (blocks, present) pair the decoder wants, ``count``
        rows, ``keys[i]`` landing in row ``rows[i]``: one stripe's for a
        read, a whole wave's, stripe after stripe, for repair.  A dead,
        unreachable, or interrupted node simply contributes nothing to
        ``present`` — absence *is* the erasure mask.  A node answers in
        request order, listing the keys it lacks, and its run lands
        through :func:`~repro.core.codec.stripe_rows`: a run of the
        wrong count or sizes, or a block of the wrong size, is one more
        erasure, counted in ``cluster.fetch.malformed_blocks``.
        """
        blocks = np.zeros((count, self.codec.block_size), dtype=np.uint8)
        present = np.zeros(count, dtype=bool)
        asked = [(link, k, r) for nid, k, r in wanted if (link := self._live_link(nid))]
        replies = await self._rpcs(
            [(link, [BlockFetchRequest(keys=keys)]) for link, keys, _ in asked]
        )
        malformed = 0
        for (_, keys, rows), (reply,) in zip(asked, replies):
            if (reply := answered(reply)) is None:
                continue
            if reply.missing:
                lacking = set(reply.missing).__contains__
                rows = rows[~np.fromiter(map(lacking, keys), bool, len(keys))]
            malformed += stripe_rows(blocks, present, rows, reply.blocks)
        if malformed:
            registry().counter("cluster.fetch.malformed_blocks").inc(malformed)
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
        check_count(seq, "seq")
        manifest = self._manifest(name)
        if seq >= len(manifest.stripes):
            raise KeyError(
                f"object {name!r} has no stripe ordinal {seq}"
            )
        record = manifest.stripes[seq]
        self.reads_inflight += 1  # counted like a get's
        try:
            blocks, present = await self._fetch_stripe(name, record)
        finally:
            self.reads_inflight -= 1
        nodes = np.flatnonzero(present)
        return StripeBlocksResponse(
            name=name,
            seq=seq,
            payload_length=record.payload_length,
            nodes=tuple(nodes.tolist()),
            blocks=BlockRun.of(blocks[nodes]),
        )

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

    async def _inventory(self) -> HolderTable:
        """Which live member holds which block: one ``block.list`` each."""
        links = list(filter(None, map(self._live_link, self.ring.members)))
        listings = await self._rpcs([(link, [BlockListRequest()]) for link in links])
        return HolderTable(
            {
                link.node_id: reply.keys
                for link, (listing,) in zip(links, listings)
                if (reply := answered(listing)) is not None
            },
            self.graph.num_nodes,
        )

    async def _repair_stripes(
        self, stripes: list[tuple[str, int]], table: HolderTable
    ) -> dict[str, int]:
        """Re-stripe a wave of ``(name, index)`` stripes onto the ring.

        Under all its stripe locks, taken in order, the wave looks each
        record up again and classifies it against the scan's ``table``
        (:meth:`HolderTable.classify`), reads every stripe with work in
        one ``block.fetch`` per source and rebuilds what no live node
        holds.  Then three barriers of one RPC per node (docs/CLUSTER.md
        § "Repair scheduling"): place moved and rebuilt blocks; flip and
        journal, a stripe only once every block sits with its new owner;
        delete the strays of settled stripes and the scan's orphans.
        The table follows the put and delete barriers.  Returns the
        wave's share of the scheduler's totals.
        """
        n, size = self.graph.num_nodes, self.codec.block_size
        stats = dict.fromkeys(TOTAL_KEYS, 0)
        async with contextlib.AsyncExitStack() as locks:
            for name, index in sorted(stripes):
                await locks.enter_async_context(self._stripe_lock(name, index))
            wave = []  # (stripe, record, desired, holding); None for an orphan
            for stripe in stripes:
                record = self._stripe_record(*stripe)
                if record is None and stripe not in table.orphans:
                    continue  # replaced since the scan: the next one's orphan
                desired = None if record is None else self._stripe_placement(*stripe)
                holding = table.classify(stripe, desired, self.nodes)
                wave.append((stripe, record, desired, holding))
            work = [w for w in wave if w[3].need.any()]
            sources = np.concatenate([w[3].source for w in work] or [()])
            prefixes = [block_key(*w[0], "") for w in work]
            fetch = []  # one block.fetch per source, its keys built here
            for column, nid in enumerate(table.nodes):
                if (rows := np.flatnonzero(sources == column)).size:
                    keys = tuple(prefixes[r // n] + str(r % n) for r in rows.tolist())
                    fetch.append((nid, keys, rows))
            blocks, present = await self._fetch_blocks(fetch, len(work) * n)
            batches: dict[str, dict[str, memoryview]] = {}
            placing = {}  # stripe -> (nodes to place, rows not fetched, complete)
            for (stripe, _, desired, holding), prefix, got, have in zip(
                work, prefixes, blocks.reshape(-1, n, size), present.reshape(-1, n)
            ):
                lost = ~have
                if lost.any():
                    try:
                        got = self.codec.recover(got, have)
                        have = np.ones(n, dtype=bool)
                    except DecodeFailure:
                        stats["unrepairable_blocks"] += int(lost.sum())
                place = np.flatnonzero(holding.need & have).tolist()
                placing[stripe] = (place, lost, have.all())
                for node in place:
                    batch = batches.setdefault(desired[node], {})
                    batch[prefix + str(node)] = got[node].data
            acks = await self._put_blocks([(nid, [b]) for nid, b in batches.items()])
            landed = {nid: ok for nid, (ok,) in zip(batches, acks)}
            records: list[dict[str, Any]] = []
            settled = []  # (stripe, holding) whose strays may go
            for stripe, record, desired, holding in wave:
                place, lost, complete = placing.get(stripe, ([], None, True))
                placed = [node for node in place if landed[desired[node]]]
                rebuilt = sum(bool(lost[node]) for node in placed)
                counts = {"moved": len(placed) - rebuilt, "rebuilt": rebuilt}
                booked = {f"{kind}_bytes": c * size for kind, c in counts.items()}
                for kind, count in counts.items():
                    stats[f"{kind}_blocks"] += count
                    stats[f"{kind}_bytes"] += count * size
                table.held(stripe)[placed] |= holding.owner[placed]
                placed_all = complete and len(placed) == len(place)
                flipped = placed_all and (
                    record is not None and desired != record.placement
                )
                if flipped or placed:
                    # A partial repair (placement None) moved bytes
                    # without flipping the record; the journal still
                    # carries the byte accounting so it survives a crash.
                    by_node = collections.Counter(sorted(desired[i] for i in placed))
                    records.append({
                        "type": "repair",
                        "name": stripe[0],
                        "index": stripe[1],
                        "placement": list(desired) if flipped else None,
                        **booked,
                        "by_node": {nid: c * size for nid, c in by_node.items()},
                    })
                if placed_all:
                    settled.append((stripe, holding))
            if records:
                self._commit(*records)
                stats["repaired_stripes"] = len(records)
            # Every block of a settled stripe sits with its journaled
            # owner: any other copy is redundant now, as is every copy
            # of an orphan.
            strays = {
                column: keys
                for column in range(len(table.nodes))
                if (keys := tuple(
                    block_key(*stripe, node)
                    for stripe, holding in settled
                    for node in np.flatnonzero(holding.strays[:, column]).tolist()
                ))
            }
            links = {column: self.nodes.get(table.nodes[column]) for column in strays}
            deleted = iter(await self._rpcs([
                (links[column], [BlockDeleteRequest(keys=keys)])
                for column, keys in strays.items()
                if links[column] is not None
            ]))
            for column in strays:
                if links[column] is None or answered(next(deleted)[0]) is not None:
                    for stripe, holding in settled:
                        table.held(stripe)[:, column] &= ~holding.strays[:, column]
        return stats

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    async def decode_headroom(self) -> dict[str, Any]:
        """Bulk what-if probe: which node loss would break a stripe?

        The cluster-level analogue of the serve layer's
        ``degraded_headroom``: one erasure case per stored stripe for
        the *current* liveness state, plus one per (stripe, live node
        holding part of it) for the state after that node additionally
        dies, all pushed through a single batch decode
        (:func:`~repro.core.decoder.make_batch_decoder`).  Hundreds of
        scenarios cost one packed decode call instead of one scalar
        peel each.
        """
        liveness = await self.probe()
        dead = {n for n, alive in liveness.items() if not alive}
        cases, _, at_risk, failing_now = _evaluate_headroom(
            self._headroom_decoder,
            [
                ((name, s.index), s.placement, [
                    j for j, owner in enumerate(s.placement)
                    if owner in dead or owner not in self.nodes
                ])
                for name, manifest in self.manifests.items()
                for s in manifest.stripes
            ],
        )
        engine = self._headroom_decoder.engine
        registry().event(
            "cluster.headroom",
            engine=engine,
            cases=cases,
            at_risk=at_risk,
            failing_now=failing_now,
        )
        return {
            "engine": engine,
            "cases": cases,
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
        # The journaled account, so a recovered coordinator scrapes
        # what the live one did.
        counters = snap.setdefault("counters", {})
        counters["cluster.repair.bytes"] = self.repair_bytes
        for node_id, nbytes in sorted(self.repair_bytes_by_node.items()):
            counters[f"cluster.repair.bytes.{node_id}"] = nbytes
        return snap

    async def status(self) -> dict[str, Any]:
        """Cluster-wide view: membership, liveness, stats, repair bytes."""
        liveness = await self.probe()
        up = [nid for nid in self.ring.members if liveness.get(nid, False)]
        replies = await self._rpcs([(self.nodes[nid], [StatsRequest()]) for nid in up])
        stats = {nid: answered(r) for nid, (r,) in zip(up, replies)}
        nodes: dict[str, Any] = {}
        for node_id in self.ring.members:
            link = self.nodes[node_id]
            entry = nodes[node_id] = {"host": link.host, "port": link.port}
            entry["alive"] = stats.get(node_id) is not None
            if entry["alive"]:
                entry["stats"] = stats[node_id].stats
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
