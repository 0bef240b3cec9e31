"""Blocking stdlib-socket clients for the wire protocol.

These are the stable programmatic surface for talking to any tier:
:class:`ArchiveClient` speaks the archive-service op family every
endpoint shares (frontend, coordinator, gateway, node — each serves
the ops it implements and answers ``unknown_op`` to the rest), and
:class:`ClusterClient` adds the coordinator's admin calls and a storage
node's block plane.

One TCP connection per client, one request/response in flight at a
time (a :class:`threading.Lock` serializes callers, so a client
instance is safe to share across threads).  A reply is read
envelope-then-body: the fixed envelope, then exactly the header and
payload bytes it declares (:func:`~repro.serve.protocol.body_size`).
Calls raise the most faithful local exception for a remote failure via
the protocol error taxonomy — ``overloaded`` arrives as
:class:`~repro.serve.service.ServiceOverloadedError`, ``deadline`` as
:class:`~repro.serve.service.DeadlineExceededError`, ``data_loss`` as
:class:`~repro.storage.archive.DataLossError`, and so on — instead of
a stringly-typed error dict.

Tracing crosses the wire one way: when tracing is active, each call
runs under a client span whose context rides in the request frame.
The server parents its own spans under it and writes them to its own
trace; ``repro obs trace-tree`` stitches the files.
"""

from __future__ import annotations

import socket
import threading
from typing import Any

from ..obs.prom import render_prometheus
from ..obs.trace import start_span
from ..resilience.retry import NO_RETRY, RetryPolicy
from .errors import DeadlineExceededError
from .protocol import (
    ENVELOPE,
    AckResponse,
    BlockDeleteRequest,
    BlockFetchRequest,
    BlockListRequest,
    BlockPutRequest,
    BlockRunResponse,
    ClusterJoinRequest,
    ClusterLeaveRequest,
    ClusterRepairStatusRequest,
    ClusterSnapshotRequest,
    Envelope,
    ErrorResponse,
    FetchStripeRequest,
    GetRequest,
    KeyListResponse,
    MetricsSnapshotRequest,
    MetricsSnapshotResponse,
    NodeAdminRequest,
    ObjectInfoResponse,
    PingRequest,
    PongResponse,
    ProtocolError,
    PutRequest,
    RepairRequest,
    Request,
    Response,
    StatsRequest,
    StatsResponse,
    StatusRequest,
    StatusResponse,
    StripeBlocksResponse,
    body_size,
    encode_request,
    parse_response,
)

__all__ = ["ArchiveClient", "ClusterClient", "ProtocolClient"]


class ProtocolClient:
    """One blocking protocol connection; base for the typed clients."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 30.0,
        retry: RetryPolicy | None = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        self._sock: socket.socket | None = None
        self._file = None
        self._lock = threading.Lock()
        self._next_id = 0

    # -- connection management -----------------------------------------

    def connect(self) -> "ProtocolClient":
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._file = self._sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ProtocolClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the one RPC primitive -----------------------------------------

    def call(self, request: Request) -> tuple[Response, Envelope]:
        """Send one request, wait for its reply, raise remote errors.

        Returns ``(typed response, envelope)``; the envelope carries
        the reply's id.  Remote failures raise
        (see module docs); a dropped connection raises
        :class:`ConnectionError` after closing the socket so the next
        call reconnects cleanly.  With a ``retry`` policy configured,
        connection-level failures
        (refused, reset, mid-frame close — *not* remote errors or
        deadlines) are retried with seeded backoff before raising.
        """
        return (self.retry or NO_RETRY).call(
            self._call_once, request, retry_on=ConnectionError
        )

    def _call_once(self, request: Request) -> tuple[Response, Envelope]:
        span = start_span(
            f"client.{request.op}",
            activate=False,
            target=f"{self.host}:{self.port}",
        )
        try:
            response, envelope = self._exchange(request, span)
            if isinstance(response, ErrorResponse):
                response.raise_remote()
        except BaseException as exc:
            span.end(error=type(exc).__name__)
            raise
        span.end()
        return response, envelope

    def _exchange(self, request: Request, span) -> tuple[Response, Envelope]:
        peer = f"{self.host}:{self.port}"
        with self._lock:
            self.connect()
            self._next_id += 1
            ctx = span.context() if span else None
            data = encode_request(
                request, request_id=self._next_id, trace=ctx
            )
            try:
                self._sock.sendall(data)
                frame = self._file.read(ENVELOPE.size)
                size = body_size(frame) if len(frame) == ENVELOPE.size else 0
                body = self._file.read(size)
            except socket.timeout as exc:
                # The peer accepted the request but never answered
                # (half-open or partitioned): surface the deadline,
                # not a hang.  The connection's framing state is
                # unknowable now, so drop it.
                self.close()
                raise DeadlineExceededError(
                    f"no reply from {peer} within {self.timeout}s"
                ) from exc
            except (OSError, ProtocolError) as exc:
                self.close()
                raise ConnectionError(
                    f"lost connection to {peer}: {exc}"
                ) from exc
            if not frame:
                self.close()
                raise ConnectionError(f"{peer} closed the connection")
            if len(frame) < ENVELOPE.size or len(body) < size:
                # EOF mid-frame: a torn reply is not a reply.
                self.close()
                raise ConnectionError(f"{peer} closed mid-frame")
        return parse_response(frame + body)

    # -- conveniences shared by every endpoint -------------------------

    def ping(self) -> bool:
        response, _ = self.call(PingRequest())
        return self._expect(response, PongResponse).pong

    @staticmethod
    def _expect(response: Response, cls: type) -> Any:
        if not isinstance(response, cls):
            raise ProtocolError(
                f"server answered with {response.kind!r}, "
                f"expected {cls.kind!r}"
            )
        return response


class ArchiveClient(ProtocolClient):
    """Typed client for the archive-service ops, whatever tier answers.

    A coordinator and a gateway serve all of them, the reconstruction
    frontend the read-only ones (``get``, ``stats``), a storage node
    ``stats`` and the scrape; an op the tier does not implement raises
    ``RemoteError(code="unknown_op")``.
    """

    def put(self, name: str, payload: bytes) -> dict[str, Any]:
        response, _ = self.call(PutRequest(name=name, payload=payload))
        return self._expect(response, AckResponse).info

    def get(
        self,
        name: str,
        *,
        want_payload: bool = False,
        deadline: float | None = None,
    ) -> ObjectInfoResponse:
        """Reconstruct ``name``; size + digest, the bytes on request."""
        response, _ = self.call(
            GetRequest(
                name=name, want_payload=want_payload, deadline=deadline
            )
        )
        return self._expect(response, ObjectInfoResponse)

    def status(self) -> dict[str, Any]:
        response, _ = self.call(StatusRequest())
        return self._expect(response, StatusResponse).status

    def repair(self, mode: str = "drain") -> dict[str, Any]:
        response, _ = self.call(RepairRequest(mode=mode))
        return self._expect(response, AckResponse).info

    def metrics_snapshot(self) -> MetricsSnapshotResponse:
        """Structured registry snapshot (the scrape plane)."""
        response, _ = self.call(MetricsSnapshotRequest())
        return self._expect(response, MetricsSnapshotResponse)

    def metrics(self) -> str:
        """The endpoint's metrics snapshot, rendered here as Prometheus
        text (no Prometheus server scrapes binary frames)."""
        return render_prometheus(self.metrics_snapshot().snapshot)

    def stats(self) -> dict[str, Any]:
        response, _ = self.call(StatsRequest())
        return self._expect(response, StatsResponse).stats


class ClusterClient(ArchiveClient):
    """:class:`ArchiveClient` plus the cluster's own calls.

    The admin calls (:meth:`join`, :meth:`leave`, :meth:`snapshot`,
    :meth:`repair_status`, :meth:`fetch_stripe`) target a coordinator,
    the block-level calls a storage node — one protocol, one class.
    """

    # -- coordinator admin plane ---------------------------------------

    def repair_status(self) -> dict[str, Any]:
        response, _ = self.call(ClusterRepairStatusRequest())
        return self._expect(response, StatusResponse).status

    def snapshot(self) -> dict[str, Any]:
        """Ask the coordinator to snapshot its WAL state now."""
        response, _ = self.call(ClusterSnapshotRequest())
        return self._expect(response, AckResponse).info

    def join(self, node_id: str, host: str, port: int) -> dict[str, Any]:
        response, _ = self.call(
            ClusterJoinRequest(node_id=node_id, host=host, port=port)
        )
        return self._expect(response, AckResponse).info

    def leave(self, node_id: str) -> dict[str, Any]:
        response, _ = self.call(ClusterLeaveRequest(node_id=node_id))
        return self._expect(response, AckResponse).info

    def fetch_stripe(
        self, name: str, seq: int
    ) -> tuple[dict[int, bytes], int]:
        """Surviving raw blocks of stripe ordinal ``seq``.

        Returns ``(blocks by graph-node index, payload_length)`` —
        the federation gateway's coupled-decode primitive.
        """
        response, _ = self.call(FetchStripeRequest(name=name, seq=seq))
        got = self._expect(response, StripeBlocksResponse)
        blocks = got.blocks.split(len(got.nodes))
        return dict(zip(got.nodes, blocks)), got.payload_length

    # -- storage-node block plane --------------------------------------

    def block_put(self, key: str, data: bytes) -> None:
        self.call(BlockPutRequest.of({key: data}))

    def block_get(self, key: str) -> bytes:
        held, _ = self.block_fetch((key,))
        if key not in held:
            raise KeyError(f"no block {key!r} on this node")
        return held[key]

    def block_fetch(
        self, keys: tuple[str, ...]
    ) -> tuple[dict[str, bytes], tuple[str, ...]]:
        response, _ = self.call(BlockFetchRequest(keys=tuple(keys)))
        got = self._expect(response, BlockRunResponse)
        lacking = set(got.missing)
        held = [key for key in keys if key not in lacking]
        return dict(zip(held, got.blocks.split(len(held)))), got.missing

    def block_delete(self, key: str) -> bool:
        response, _ = self.call(BlockDeleteRequest(keys=(key,)))
        return bool(self._expect(response, AckResponse).info["deleted"])

    def block_list(self, prefix: str = "") -> tuple[str, ...]:
        response, _ = self.call(BlockListRequest(prefix=prefix))
        return self._expect(response, KeyListResponse).keys

    def node_admin(
        self, action: str, *, delay_seconds: float | None = None
    ) -> dict[str, Any]:
        response, _ = self.call(
            NodeAdminRequest(action=action, delay_seconds=delay_seconds)
        )
        return self._expect(response, AckResponse).info
