"""Shared asyncio server for every protocol speaker.

The frontend, the cluster coordinator, and the storage nodes all speak
the same framing (:mod:`repro.serve.protocol`); this module owns the
one piece they would otherwise each reimplement: the per-connection
dispatch → reply cycle, an :class:`asyncio.Protocol` whose
:class:`FrameSplitter` (the link's too) cuts each chunk the transport
delivers into whole frames.

Two properties matter:

* **Dispatch in the transport callback, one write per chunk.**  Each
  frame is parsed and handed to the handler inside ``data_received``,
  under the caller's trace context.  A handler that can answer at once
  returns its response, and a chunk's replies leave in one ``write``;
  one that must wait returns an awaitable, and only that gets a task
  (whose reply a ``call_soon`` flush sends), so a slow reconstruction
  never blocks a ``ping`` pipelined behind it.  A peer whose replies
  back up past the high-water mark is not read until they drain.
* **Bad input gets a typed answer.**  Unknown ops, unsupported
  versions, mistyped fields and header or payload bytes the fields do
  not account for are answered with an error frame carrying the
  sender's ``id``, and the connection stays up.  Only a frame whose end
  cannot be found (a JSON header line of protocol 4 or older) or is not
  worth reading to (header or payload over its cap) is answered and
  then hung up on.

The archive-service contract is dispatched here too, once:
:class:`ArchiveEndpoint` is the handler of every tier.  Whatever object
exposes ``put(name, payload)``, ``get(name, want_payload=, deadline=)``,
``status()``, ``repair(mode)``, ``metrics_snapshot()`` or ``stats()``
gets the matching rows of the one table (plus ``ping``); a tier adds
only the rows that are its own (``cluster.join``, ``block.*``, ...).
"""

from __future__ import annotations

import asyncio
from contextlib import nullcontext
from typing import Any, Awaitable, Callable, Iterator, Mapping

from .._checks import check_seconds
from ..obs.trace import trace_span, use_context
from .errors import DeadlineExceededError
from .protocol import (
    ENVELOPE,
    AckResponse,
    Envelope,
    ErrorResponse,
    GetRequest,
    MetricsSnapshotRequest,
    MetricsSnapshotResponse,
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
    body_size,
    encode_frame,
    parse_request,
)

__all__ = [
    "ArchiveEndpoint",
    "FrameSplitter",
    "Handler",
    "start_line_server",
    "within_deadline",
]

# A handler maps one typed request to a typed response, or to an
# awaitable of one when it must wait.
Handler = Callable[[Request, Envelope], Any]


class FrameSplitter:
    """Cuts a byte stream into frames at their envelopes' lengths
    (:func:`body_size` refuses a JSON line on its first byte and an
    over-cap length at once), keeping a partial one for the next chunk."""

    def __init__(self) -> None:
        self.parts: list[bytes] = []  # a partial frame's chunks
        self._have = self._need = 0  # their length, and the frame's

    def feed(self, data: bytes) -> Iterator[bytes]:
        """The whole frames ``data`` completes, in order."""
        if self.parts:
            self.parts.append(data)
            self._have += len(data)
            if self._have < self._need:
                return
            data, self.parts = b"".join(self.parts), []
        start = 0
        while start < len(data):
            prefix = data[start : start + ENVELOPE.size]
            need = ENVELOPE.size
            if len(prefix) == need or prefix[:1] == b"{":
                need += body_size(prefix)
            if len(data) - start < need:
                self.parts = [data[start:]]
                self._have, self._need = len(data) - start, need
                return
            yield data[start : start + need]
            start += need


class _Connection(asyncio.Protocol):
    """One peer of a line server."""

    def __init__(self, handler: Handler, peers: set[_Connection]) -> None:
        self.handler = handler
        self.peers = peers
        self.frames = FrameSplitter()
        self.outbox: list[bytes] = []
        self.inflight: set[asyncio.Task] = set()
        self.closing = False  # no further request is read
        self.loop = asyncio.get_running_loop()

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.peers.add(self)

    def data_received(self, data: bytes) -> None:
        try:
            for frame in self.frames.feed(data):
                self.serve(frame)
        except ProtocolError as exc:
            # The stream position is lost: answer, then hang up.
            self.reply(ErrorResponse.from_exception(exc), exc.request_id or 0)
            self.finish()
        self.flush()

    def eof_received(self) -> bool:
        self.finish()
        return True  # half-open: the in-flight replies still go out

    def connection_lost(self, exc: Exception | None) -> None:
        self.peers.discard(self)
        self.closing = True
        for task in self.inflight:
            task.cancel()

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        if not self.closing:
            self.transport.resume_reading()

    def serve(self, frame: bytes) -> None:
        try:
            request, envelope = parse_request(frame)
        except ProtocolError as exc:
            self.reply(ErrorResponse.from_exception(exc), exc.request_id or 0)
            return
        with use_context(envelope.trace):
            try:
                result = self.handler(request, envelope)
            except Exception as exc:
                result = ErrorResponse.from_exception(exc)
            if not isinstance(result, Response):
                # The task runs in a copy of this context, trace and all.
                task = self.loop.create_task(self.answer(result, envelope.id))
                self.inflight.add(task)
                task.add_done_callback(self.task_done)
                return
        self.reply(result, envelope.id)

    async def answer(self, pending: Awaitable, request_id: int) -> None:
        try:
            result = await pending
        except Exception as exc:
            result = ErrorResponse.from_exception(exc)
        if not self.outbox:
            self.loop.call_soon(self.flush)
        self.reply(result, request_id)

    def reply(self, result: Response, request_id: int) -> None:
        try:
            data = encode_frame(result, request_id=request_id)
        except ProtocolError as exc:  # a reply over its cap
            data = encode_frame(
                ErrorResponse.from_exception(exc), request_id=request_id
            )
        self.outbox.append(data)

    def flush(self) -> None:
        # A peer that hung up (gave up on a deadline, died mid-frame)
        # leaves the replies nowhere to go; writing on would only make
        # asyncio log every dropped reply of a burst.
        if self.outbox and not self.transport.is_closing():
            self.transport.write(b"".join(self.outbox))
        self.outbox.clear()

    def finish(self) -> None:
        """Read no further; close once every in-flight task answered."""
        self.closing = True
        self.transport.pause_reading()
        if not self.inflight:
            self.flush()
            self.transport.close()

    def task_done(self, task: asyncio.Task) -> None:
        self.inflight.discard(task)
        if self.closing:
            self.finish()


async def start_line_server(
    handler: Handler,
    host: str = "127.0.0.1",
    port: int = 0,
) -> asyncio.base_events.Server:
    """Serve the protocol on a TCP port (``port=0`` = ephemeral).

    The caller owns the life cycle: close the returned server (and any
    backing service) itself.  Closing it, or cancelling the loop's
    tasks at shutdown, also hangs up on every peer still connected.
    """
    loop = asyncio.get_running_loop()
    peers: set[_Connection] = set()
    server = await loop.create_server(lambda: _Connection(handler, peers), host, port)
    # The server's one task: it ends when the server closes or the loop
    # cancels its tasks, and takes the connections with it.  It fails on
    # a server closed before it ran; retrieved, that stays out of the log.
    def hang_up(task: asyncio.Task) -> None:
        if not task.cancelled():
            task.exception()
        for peer in list(peers):
            peer.transport.abort()

    loop.create_task(server.serve_forever()).add_done_callback(hang_up)
    return server


# ----------------------------------------------------------------------
# The archive-service contract: one dispatch table for every tier
# ----------------------------------------------------------------------


async def within_deadline(deadline: float | None, read, *args) -> Any:
    """Await ``read(*args)``, abandoning it after ``deadline`` seconds
    with the :class:`DeadlineExceededError` a queueing tier raises — how
    a tier whose reads are not queued honours ``get(deadline=)``.  A
    deadline :func:`check_seconds` refuses never starts the read."""
    check_seconds(deadline, "deadline")
    if deadline is None:
        return await read(*args)
    try:
        return await asyncio.wait_for(read(*args), deadline)
    except asyncio.TimeoutError:
        raise DeadlineExceededError(
            f"read not finished within its {deadline}s deadline"
        ) from None


class ArchiveEndpoint:
    """The :data:`Handler` of one tier: shared rows plus the tier's own.

    A row is ``(endpoint, request) -> Response``, async only where it
    must wait (the object ops).  ``role`` names
    the tier in ``metrics.snapshot`` replies and ``unknown_op``
    refusals, ``source`` the process within the role (a node's id; the
    role itself where there is one process).  ``spans`` is the family
    the object-op spans are minted under (``cluster.put``,
    ``sites.get``, ...); ``None`` for a tier that traces its own
    requests.
    """

    def __init__(
        self,
        service: Any,
        role: str,
        *,
        source: str | None = None,
        spans: str | None = None,
        extra: Mapping[type[Request], Callable] | None = None,
    ):
        self.service = service
        self.role = role
        self.source = source or role
        self.spans = spans
        self.rows: dict[type[Request], Callable] = {
            cls: row
            for cls, (method, row) in SHARED_ROWS.items()
            if method is None or hasattr(service, method)
        }
        self.rows.update(extra or {})

    def __call__(self, request: Request, envelope: Envelope) -> Any:
        row = self.rows.get(type(request))
        if row is None:
            raise ProtocolError(
                f"op {request.op!r} is not served by the {self.role}",
                code="unknown_op",
            )
        return row(self, request)

    def span(self, op: str, **tags: Any):
        if self.spans is None:
            return nullcontext()
        return trace_span(f"{self.spans}.{op}", **tags)

    # -- the shared rows -----------------------------------------------

    def _ping(self, request: PingRequest):
        return PongResponse()

    def _metrics_snapshot(self, request: MetricsSnapshotRequest):
        return MetricsSnapshotResponse(
            role=self.role,
            source=self.source,
            snapshot=self.service.metrics_snapshot(),
        )

    def _stats(self, request: StatsRequest):
        return StatsResponse(stats=self.service.stats())

    async def _put(self, request: PutRequest):
        with self.span("put", object=request.name):
            info = await self.service.put(request.name, request.payload)
        return AckResponse(info=info)

    async def _get(self, request: GetRequest):
        with self.span("get", object=request.name):
            return await self.service.get(
                request.name,
                want_payload=request.want_payload,
                deadline=request.deadline,
            )

    async def _status(self, request: StatusRequest):
        return StatusResponse(status=await self.service.status())

    async def _repair(self, request: RepairRequest):
        with self.span("repair", mode=request.mode):
            info = await self.service.repair(mode=request.mode)
        return AckResponse(info=info)


# Request type -> (the service method its row needs, the row).  A tier
# serves exactly the rows whose method its service object has.
SHARED_ROWS: dict[type[Request], tuple[str | None, Callable]] = {
    PingRequest: (None, ArchiveEndpoint._ping),
    MetricsSnapshotRequest: (
        "metrics_snapshot",
        ArchiveEndpoint._metrics_snapshot,
    ),
    StatsRequest: ("stats", ArchiveEndpoint._stats),
    PutRequest: ("put", ArchiveEndpoint._put),
    GetRequest: ("get", ArchiveEndpoint._get),
    StatusRequest: ("status", ArchiveEndpoint._status),
    RepairRequest: ("repair", ArchiveEndpoint._repair),
}
