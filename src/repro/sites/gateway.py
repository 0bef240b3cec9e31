"""Federation gateway: WAN-aware reads across per-site clusters.

The gateway is the federation's object plane.  Each *site* is a whole
:mod:`repro.cluster` deployment — its own coordinator, storage nodes,
and WAL — deployed with the catalog graph the federation manifest
assigned it (:mod:`repro.sites.manifest`).  The gateway serves the same
archive-service ops a coordinator does, by forwarding them: ``put``
replicates an object to every site; ``get`` walks a priced read ladder:

1. **local** — the object's home site (weighted consistent hashing
   over site ids) reconstructs it; zero WAN bytes;
2. **remote** — a remote site that can decode alone ships the whole
   object; ``size`` WAN bytes;
3. **coupled** — no single site can decode, so the gateway pulls every
   surviving raw block of every stripe from every reachable site
   (``cluster.fetch_stripe``) into one stripe of the federation's
   stacked graph (:attr:`FederatedSystem.graph`; a dark site is
   ``n`` erasures) and decodes it the way a coordinator decodes a
   degraded read: one cached peeling schedule per erasure mask, one
   XOR replay per stripe — the paper's multi-graph coupled
   reconstruction (§5.3) executed on real bytes over TCP.  Remote
   blocks are priced; home-site blocks ride the LAN free.

WAN accounting is first-class and split by purpose, because the
federation's CI asserts on the split: ``sites.wan.bytes`` totals all
wide-area traffic, ``sites.read.wan_bytes`` / ``sites.repair.wan_bytes``
attribute it to reads vs repair, per-site ``sites.wan.bytes.<site>``
attributes it to the shipping site, and put-time replication is
metered separately as ``sites.replicate.bytes`` (replication is the
steady state; WAN read/repair traffic is the anomaly signal).

``repair`` makes "remote blocks vs local reconstruction" a
priced decision: every site first runs its own budgeted
:class:`~repro.cluster.scheduler.RepairScheduler` (local
reconstruction, free); only objects a site still cannot decode are
re-derived federation-wide and re-injected over the WAN, bounded per
call by ``repair_wan_budget`` bytes, deferred (and reported) beyond it.
"""

from __future__ import annotations

import asyncio
import hashlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..cluster.coordinator import DEFAULT_RETRY, NodeDownError, link_rpc
from ..cluster.ring import HashRing
from ..core.codec import DecodeFailure, TornadoCodec, stripe_rows
from ..core.plancache import PlanCache
from ..obs.registry import registry
from ..obs.trace import trace_span
from ..resilience.retry import RetryPolicy
from ..serve.lineserver import (
    ArchiveEndpoint,
    start_line_server,
    within_deadline,
)
from ..serve.link import PipelinedLink, check_rpc_timeout
from ..serve.protocol import (
    FetchStripeRequest,
    GetRequest,
    ObjectInfoResponse,
    ProtocolError,
    PutRequest,
    RemoteError,
    RepairRequest,
    Request,
    Response,
    StatusRequest,
)
from ..storage.archive import DataLossError
from ..storage.device import TransientUnavailableError
from .manifest import FederationManifest

__all__ = ["FederationGateway", "SiteDownError", "SiteLink", "start_gateway"]


class SiteDownError(NodeDownError):
    """A whole site's coordinator could not be reached."""


class SiteLink(PipelinedLink):
    """One site's coordinator endpoint and its (lazy) RPC connection."""

    down_error = SiteDownError
    family = "sites.rpc"

    def __init__(self, site_id: str, host: str, port: int):
        super().__init__(host, port, f"site {site_id!r}", site=site_id)
        self.site_id = site_id


def _rung_failure(exc: BaseException) -> bool:
    """Failures that move the read ladder to its next rung.

    A dark site, an outage-blocked site, an object the site never
    heard of, and a site-local data loss all mean the same thing to
    the federation: *this* site cannot serve the read.  Remote data
    loss crosses the wire as ``RemoteError(code="data_loss")``, not as
    a local :class:`DataLossError` — both forms count.
    """
    if isinstance(
        exc,
        (SiteDownError, TransientUnavailableError,
         DataLossError, KeyError),
    ):
        return True
    return isinstance(exc, RemoteError) and exc.code == "data_loss"


@dataclass(frozen=True)
class _ObjectRecord:
    """The gateway's ack authority for one federated object."""

    name: str
    size: int
    sha256: str
    sites: tuple[str, ...]  # sites that acked the put


class FederationGateway:
    """The federation's object plane over per-site cluster coordinators."""

    def __init__(
        self,
        manifest: FederationManifest,
        *,
        block_size: int = 4096,
        retry: RetryPolicy | None = DEFAULT_RETRY,
        rpc_timeout: float | None = 10.0,
        repair_wan_budget: int | None = None,
        plan_capacity: int = 256,
    ):
        check_rpc_timeout(rpc_timeout)
        if repair_wan_budget is not None and repair_wan_budget < 0:
            raise ValueError("repair_wan_budget must be non-negative")
        self.manifest = manifest
        self.block_size = block_size
        # Coupled decode requires the shared data layout; validating
        # at construction turns a mis-assembled manifest into a
        # startup error instead of a wrong answer later.
        self.system = manifest.system()
        self.plans = PlanCache(plan_capacity)
        self.codec = TornadoCodec(
            self.system.graph, block_size, self.plans
        )
        self.retry = retry
        self.rpc_timeout = rpc_timeout
        self.repair_wan_budget = repair_wan_budget
        self.ring = HashRing()
        for assignment in manifest.sites:
            self.ring.add(assignment.site_id, weight=assignment.weight)
        self.links: dict[str, SiteLink] = {}
        self.objects: dict[str, _ObjectRecord] = {}
        # WAN accounting mirrors the registry so status() reports it
        # even under the disabled null registry.
        self.wan_bytes = 0
        self.read_wan_bytes = 0
        self.repair_wan_bytes = 0
        self.replicate_bytes = 0
        self.wan_bytes_by_site: dict[str, int] = {}
        self.reads = {"local": 0, "remote": 0, "coupled": 0, "failed": 0}

    # ------------------------------------------------------------------
    # Site RPC plumbing (the coordinator's node RPC, one level up)
    # ------------------------------------------------------------------

    def attach_site(self, site_id: str, host: str, port: int) -> None:
        """Bind (or re-bind) a manifest site to its coordinator address."""
        self.manifest.assignment(site_id)  # KeyError on unknown site
        self.links[site_id] = SiteLink(site_id, host, port)

    def _link(self, site_id: str) -> SiteLink:
        try:
            return self.links[site_id]
        except KeyError:
            raise SiteDownError(
                f"site {site_id!r} has no attached coordinator"
            ) from None

    async def _rpc(self, link: SiteLink, request: Request) -> Response:
        return await link_rpc(
            link, request, retry=self.retry, timeout=self.rpc_timeout
        )

    # ------------------------------------------------------------------
    # WAN accounting
    # ------------------------------------------------------------------

    def _meter_wan(self, site_id: str, nbytes: int, purpose: str) -> None:
        """Attribute ``nbytes`` of WAN traffic shipped *from* a site."""
        self.wan_bytes += nbytes
        if purpose == "repair":
            self.repair_wan_bytes += nbytes
        else:
            self.read_wan_bytes += nbytes
        self.wan_bytes_by_site[site_id] = (
            self.wan_bytes_by_site.get(site_id, 0) + nbytes
        )
        reg = registry()
        reg.counter("sites.wan.bytes").inc(nbytes)
        reg.counter(f"sites.wan.bytes.{site_id}").inc(nbytes)
        reg.counter(f"sites.{purpose}.wan_bytes").inc(nbytes)

    # ------------------------------------------------------------------
    # Object plane
    # ------------------------------------------------------------------

    def _site_order(self, name: str) -> list[str]:
        """Home site first, the rest in deterministic ring order."""
        members = list(self.ring.members)
        home = self.ring.owner(name)
        anchor = members.index(home)
        return members[anchor:] + members[:anchor]

    def home_site(self, name: str) -> str:
        return self.ring.owner(name)

    async def put(self, name: str, payload: bytes) -> dict[str, Any]:
        """Replicate an object to every site; ack once any site holds it.

        Replication bytes are metered (``sites.replicate.bytes``) but
        are *not* WAN read/repair traffic — a put that fans out to N
        sites is the federation's steady state, not its anomaly.
        """
        order = self._site_order(name)

        async def one(site_id: str) -> bool:
            try:
                await self._rpc(
                    self._link(site_id),
                    PutRequest(name=name, payload=payload),
                )
                return True
            except (SiteDownError, TransientUnavailableError):
                return False

        results = await asyncio.gather(*(one(sid) for sid in order))
        acked = tuple(
            sid for sid, ok in zip(order, results) if ok
        )
        if not acked:
            raise TransientUnavailableError(
                f"no site acked put of {name!r} "
                f"({len(order)} sites tried)"
            )
        replicated = sum(len(payload) for sid in acked if sid != order[0])
        self.replicate_bytes += replicated
        reg = registry()
        reg.counter("sites.replicate.bytes").inc(replicated)
        reg.counter("sites.put.objects").inc()
        record = _ObjectRecord(
            name=name,
            size=len(payload),
            sha256=hashlib.sha256(payload).hexdigest(),
            sites=acked,
        )
        self.objects[name] = record
        return {
            "name": name,
            "size": record.size,
            "sha256": record.sha256,
            "home": order[0],
            "sites": list(acked),
        }

    async def get(
        self,
        name: str,
        *,
        want_payload: bool = False,
        deadline: float | None = None,
    ) -> ObjectInfoResponse:
        """Walk the read ladder: local, remote, coupled.

        ``deadline`` (seconds) abandons the walk with
        :class:`~repro.serve.errors.DeadlineExceededError`.
        """
        return await within_deadline(
            self._get(name, want_payload), deadline
        )

    async def _get(self, name: str, want_payload: bool) -> ObjectInfoResponse:
        order = self._site_order(name)
        home = order[0]
        # Rung 1: the home site, zero WAN bytes.
        try:
            response = await self._rpc(
                self._link(home),
                GetRequest(name=name, want_payload=want_payload),
            )
            self.reads["local"] += 1
            registry().counter("sites.get.local").inc()
            return response
        except Exception as exc:
            if not _rung_failure(exc):
                raise
        # Rung 2: any remote site that decodes alone; size WAN bytes.
        for site_id in order[1:]:
            try:
                response = await self._rpc(
                    self._link(site_id),
                    GetRequest(name=name, want_payload=True),
                )
            except Exception as exc:
                if not _rung_failure(exc):
                    raise
                continue
            self._meter_wan(site_id, response.size, "read")
            self.reads["remote"] += 1
            registry().counter("sites.get.remote").inc()
            return ObjectInfoResponse(
                name=name,
                size=response.size,
                sha256=response.sha256,
                payload=response.payload if want_payload else None,
            )
        # Rung 3: coupled cross-site decode on raw blocks.
        try:
            payload = await self._coupled_read(name, home, "read")
        except Exception:
            self.reads["failed"] += 1
            registry().counter("sites.get.failed").inc()
            raise
        self.reads["coupled"] += 1
        registry().counter("sites.get.coupled").inc()
        return ObjectInfoResponse(
            name=name,
            size=len(payload),
            sha256=hashlib.sha256(payload).hexdigest(),
            payload=payload if want_payload else None,
        )

    # -- coupled decode ------------------------------------------------

    async def _coupled_read(
        self, name: str, home: str, purpose: str
    ) -> bytes:
        """Reconstruct ``name`` from the federation's stacked graph.

        Per stripe ordinal: stack every site's surviving raw blocks
        into one stripe of :attr:`FederatedSystem.graph`, take the
        peeling schedule for its erasure mask from the plan cache and
        replay it — the byte-level execution of
        :meth:`FederatedSystem.decode`.  Blocks shipped by non-home
        sites are WAN traffic booked to ``purpose``.
        """
        record = self.objects.get(name)
        if record is None:
            raise KeyError(f"no federated object named {name!r}")
        num_stripes = max(1, -(-record.size // self.codec.stripe_capacity))
        parts: list[bytes] = []
        with trace_span(
            "sites.coupled_decode", object=name, stripes=num_stripes
        ):
            for seq in range(num_stripes):
                parts.append(
                    await self._couple_stripe(name, home, seq, purpose)
                )
        payload = b"".join(parts)
        if hashlib.sha256(payload).hexdigest() != record.sha256:
            raise DataLossError(name, -1, frozenset({-1}))
        return payload

    async def _couple_stripe(
        self, name: str, home: str, seq: int, purpose: str
    ) -> bytes:
        graph = self.system.graph
        n = self.system.nodes_per_site
        blocks = np.zeros(
            (graph.num_nodes, self.block_size), dtype=np.uint8
        )
        present = np.zeros(graph.num_nodes, dtype=bool)
        payload_length = 0
        dark = 0
        for site, site_id in enumerate(self.manifest.site_ids):
            try:
                response = await self._rpc(
                    self._link(site_id),
                    FetchStripeRequest(name=name, seq=seq),
                )
            except (SiteDownError, TransientUnavailableError):
                dark += 1  # its n nodes stay erased while it is out
                continue
            except KeyError:
                continue  # up, but never held the object: erased for good
            payload_length = response.payload_length
            shipped = response.blocks or {}
            rows, have, refused = stripe_rows(
                (
                    (int(key) if key.isdecimal() else -1, data)
                    for key, data in shipped.items()
                ),
                n,
                self.block_size,
            )
            if refused:
                raise ProtocolError(
                    f"site {site_id!r} shipped {refused} malformed blocks "
                    f"of object {name!r} stripe {seq}: node ids are "
                    f"decimal integers in [0, {n}), blocks are "
                    f"{self.block_size} bytes"
                )
            at = slice(site * n, (site + 1) * n)
            blocks[at], present[at] = rows, have
            if site_id != home:
                self._meter_wan(
                    site_id, sum(map(len, shipped.values())), purpose
                )
        try:
            # No site answering is every row erased: stuck, typed below.
            data = self.codec.decode_blocks(blocks, present)
        except DecodeFailure as exc:
            if dark:
                raise TransientUnavailableError(
                    f"object {name!r} stripe {seq}: coupled decode "
                    f"stuck on {len(exc.residual)} data blocks with "
                    f"{dark} sites unreachable (retry or repair may "
                    "succeed)"
                ) from exc
            raise DataLossError(name, seq, exc.residual) from exc
        return data.tobytes()[:payload_length]

    # ------------------------------------------------------------------
    # Repair: local reconstruction first, priced WAN re-injection last
    # ------------------------------------------------------------------

    async def repair(self, mode: str = "drain") -> dict[str, Any]:
        """Heal every site, then re-inject what sites cannot rebuild.

        Phase 1 delegates to each site's own budgeted repair scheduler
        (``mode`` passes through) — local reconstruction moves zero
        WAN bytes, so it always runs first.  Phase 2 sweeps the
        gateway's acked objects: a site that still answers
        ``data_loss`` gets the object re-derived from the rest of the
        federation and re-put over the WAN, budgeted per call by
        ``repair_wan_budget`` and deferred (reported, not silent)
        beyond it.  ``scan`` mode skips phase 2.
        """
        per_site: dict[str, Any] = {}
        for site_id in self.ring.members:
            try:
                response = await self._rpc(
                    self._link(site_id),
                    RepairRequest(mode=mode),
                )
                per_site[site_id] = response.info
            except (SiteDownError, TransientUnavailableError) as exc:
                per_site[site_id] = {"error": str(exc)}
        reinjected: list[dict[str, Any]] = []
        deferred: list[dict[str, Any]] = []
        spent = 0
        if mode != "scan":
            for name in sorted(self.objects):
                for site_id in self.ring.members:
                    need = await self._needs_reinjection(site_id, name)
                    if not need:
                        continue
                    size = self.objects[name].size
                    if (
                        self.repair_wan_budget is not None
                        and spent + size > self.repair_wan_budget
                    ):
                        deferred.append(
                            {"name": name, "site": site_id, "bytes": size}
                        )
                        continue
                    if await self._reinject(site_id, name):
                        spent += size
                        reinjected.append(
                            {"name": name, "site": site_id, "bytes": size}
                        )
        if deferred:
            registry().counter("sites.repair.deferred").inc(len(deferred))
        return {
            "sites": per_site,
            "reinjected": reinjected,
            "deferred": deferred,
            "wan_bytes": spent,
        }

    async def _needs_reinjection(self, site_id: str, name: str) -> bool:
        """True iff the site is up but cannot serve the object."""
        try:
            await self._rpc(
                self._link(site_id), GetRequest(name=name)
            )
            return False
        except (SiteDownError, TransientUnavailableError):
            return False  # not reachable/healthy enough to re-inject
        except Exception as exc:
            if not _rung_failure(exc):
                raise
            return True  # data loss or unknown object: re-inject

    async def _reinject(self, site_id: str, name: str) -> bool:
        """Re-derive ``name`` federation-wide and re-put it at a site."""
        order = [
            sid for sid in self._site_order(name) if sid != site_id
        ]
        payload: bytes | None = None
        for source in order:
            try:
                response = await self._rpc(
                    self._link(source),
                    GetRequest(name=name, want_payload=True),
                )
            except Exception as exc:
                if not _rung_failure(exc):
                    raise
                continue
            payload = response.payload
            self._meter_wan(source, len(payload), "repair")
            break
        if payload is None:
            try:
                payload = await self._coupled_read(
                    name, self.home_site(name), "repair"
                )
            except Exception as exc:
                if not _rung_failure(exc):
                    raise
                return False
        try:
            await self._rpc(
                self._link(site_id),
                PutRequest(name=name, payload=payload),
            )
        except (SiteDownError, TransientUnavailableError):
            return False
        self._meter_wan(site_id, len(payload), "repair")
        registry().counter("sites.repair.reinjected").inc()
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> dict[str, Any]:
        """Registry snapshot plus gateway-synthesized fleet facts.

        Purely local (no site RPCs): read-ladder outcomes become
        counters and the WAN ledgers become gauges, so a scrape never
        blocks behind a blacked-out site.
        """
        snap = registry().snapshot()
        counters = snap.setdefault("counters", {})
        for outcome, count in self.reads.items():
            name = f"sites.reads.{outcome}"
            counters[name] = max(counters.get(name, 0), count)
        gauges = snap.setdefault("gauges", {})
        gauges["sites.objects"] = float(len(self.objects))
        gauges["sites.first_failure_floor"] = float(
            self.manifest.first_failure_floor()
        )
        gauges["sites.members"] = float(len(self.manifest.sites))
        counters["sites.wan.bytes"] = max(
            counters.get("sites.wan.bytes", 0), self.wan_bytes
        )
        counters["sites.read.wan_bytes"] = max(
            counters.get("sites.read.wan_bytes", 0),
            self.read_wan_bytes,
        )
        counters["sites.repair.wan_bytes"] = max(
            counters.get("sites.repair.wan_bytes", 0),
            self.repair_wan_bytes,
        )
        return snap

    async def status(self) -> dict[str, Any]:
        sites: dict[str, Any] = {}
        for assignment in self.manifest.sites:
            site_id = assignment.site_id
            entry: dict[str, Any] = {
                "graph": assignment.graph_number,
                "weight": assignment.weight,
                "alive": False,
            }
            link = self.links.get(site_id)
            if link is not None:
                entry["host"], entry["port"] = link.host, link.port
                try:
                    response = await self._rpc(link, StatusRequest())
                    entry["alive"] = True
                    entry["status"] = response.status
                except (SiteDownError, TransientUnavailableError):
                    pass
            sites[site_id] = entry
        return {
            "sites": sites,
            "objects": len(self.objects),
            "first_failure_floor": self.manifest.first_failure_floor(),
            "reads": dict(self.reads),
            "wan": {
                "total_bytes": self.wan_bytes,
                "read_bytes": self.read_wan_bytes,
                "repair_bytes": self.repair_wan_bytes,
                "replicate_bytes": self.replicate_bytes,
                "by_site": dict(self.wan_bytes_by_site),
            },
        }


async def start_gateway(
    gateway: FederationGateway,
    host: str = "127.0.0.1",
    port: int = 0,
) -> asyncio.base_events.Server:
    """Serve the gateway on a TCP port (``port=0`` = ephemeral).

    Every op it answers is a shared archive-service row; it adds none.
    """
    endpoint = ArchiveEndpoint(gateway, "gateway", spans="sites")
    return await start_line_server(endpoint, host, port)
