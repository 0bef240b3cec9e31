"""Shared asyncio server loop for every protocol speaker.

The frontend, the cluster coordinator, and the storage nodes all speak
the same framing (:mod:`repro.serve.protocol`); this module owns the
one piece they would otherwise each reimplement: the per-connection
read → dispatch → reply loop.  A frame is read header-then-payload:
one line, then exactly the :func:`~repro.serve.protocol.payload_size`
bytes its tail declares.

Two properties matter:

* **Concurrent handling, one write per loop turn.**  Each request frame
  spawns its own task, so a slow reconstruction never head-of-line
  blocks a ``ping`` pipelined behind it on the same connection.  Whole
  reply frames queue in a per-connection outbox that ``call_soon``
  flushes in one ``write`` (and that is flushed before any hang-up), so
  a burst read in one turn is answered in one; handlers still ``drain``.
  Clients that pipeline (the coordinator's and the gateway's
  :class:`~repro.serve.link.PipelinedLink`) correlate replies by the
  echoed ``id`` envelope field.
* **Bad input gets a typed answer.**  Malformed JSON, unknown ops,
  unsupported versions, mistyped fields and payload bytes the fields do
  not account for are answered with an error frame carrying the
  sender's ``id``, and the connection stays up.  Only a frame whose end
  cannot be found (header line over the stream limit, declared payload
  over the cap) is answered and then hung up on.

The archive-service contract is dispatched here too, once:
:class:`ArchiveEndpoint` is the handler of every tier.  Whatever object
exposes ``put(name, payload)``, ``get(name, want_payload=, deadline=)``,
``status()``, ``repair(mode)``, ``metrics_snapshot()`` or ``stats()``
gets the matching rows of the one table (plus ``ping``, and ``metrics``
as the Prometheus rendering of the snapshot); a tier adds only the
rows that are its own (``cluster.join``, ``block.*``, ...).
"""

from __future__ import annotations

import asyncio
from contextlib import nullcontext
from typing import Any, Awaitable, Callable, Mapping

from ..obs.prom import render_prometheus
from ..obs.trace import trace_span, use_context
from .errors import DeadlineExceededError
from .protocol import (
    MAX_LINE_BYTES,
    AckResponse,
    Envelope,
    ErrorResponse,
    GetRequest,
    MetricsRequest,
    MetricsResponse,
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
    encode_frame,
    parse_request,
    payload_size,
)

__all__ = [
    "ArchiveEndpoint",
    "Handler",
    "read_frame",
    "start_line_server",
    "within_deadline",
]

# A handler maps one typed request to a typed response, optionally with
# extra envelope fields to merge into the reply frame (e.g. shipped
# trace spans).
Handler = Callable[
    [Request, Envelope],
    "Awaitable[Response | tuple[Response, dict[str, Any]]]",
]


async def read_frame(
    reader: asyncio.StreamReader,
) -> tuple[bytes, bytes] | None:
    """The next frame off a stream as ``(header line, payload)``.

    ``None`` at a clean EOF; :class:`asyncio.IncompleteReadError` when
    the stream ends inside a frame; :class:`ProtocolError` when the
    frame's end cannot be found (header line over the stream limit) or
    is not worth reading to (payload over the cap).
    """
    try:
        line = await reader.readline()
    except ValueError:
        raise ProtocolError(
            f"header line over the {MAX_LINE_BYTES}-byte limit"
        ) from None
    if not line.endswith(b"\n"):
        if line:
            raise asyncio.IncompleteReadError(line, None)
        return None
    size = payload_size(line)
    return line, await reader.readexactly(size) if size else b""


async def start_line_server(
    handler: Handler,
    host: str = "127.0.0.1",
    port: int = 0,
) -> asyncio.base_events.Server:
    """Serve the protocol on a TCP port (``port=0`` = ephemeral).

    The caller owns the life cycle: close the returned server (and any
    backing service) itself.
    """

    async def handle_connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        inflight: set[asyncio.Task] = set()
        outbox: list[bytes] = []

        def flush() -> None:
            # A peer that hung up (gave up on a deadline, died
            # mid-frame) leaves the replies nowhere to go, and the read
            # loop will see EOF and close; writing on would only make
            # asyncio log every dropped reply of a burst.
            if outbox and not writer.transport.is_closing():
                writer.write(b"".join(outbox))
            outbox.clear()

        async def reply(frame: dict[str, Any]) -> None:
            try:
                data = encode_frame(frame)
            except ProtocolError as exc:  # a reply payload over the cap
                data = encode_frame(
                    ErrorResponse.from_exception(exc).to_frame(
                        request_id=frame.get("id")
                    )
                )
            if not outbox:
                asyncio.get_running_loop().call_soon(flush)
            outbox.append(data)
            try:
                await writer.drain()
            except OSError:
                # The peer is gone: raising would only leave an
                # unretrieved task exception.
                pass

        async def refuse(exc: ProtocolError) -> None:
            await reply(
                ErrorResponse.from_exception(exc).to_frame(
                    request_id=exc.request_id
                )
            )

        async def process(line: bytes, payload: bytes) -> None:
            try:
                request, envelope = parse_request(line, payload)
            except ProtocolError as exc:
                await refuse(exc)
                return
            try:
                result = await handler(request, envelope)
            except Exception as exc:
                result = ErrorResponse.from_exception(exc)
            extra: dict[str, Any] = {}
            if isinstance(result, tuple):
                result, extra = result
            frame = result.to_frame(request_id=envelope.id)
            if extra:
                frame.update(extra)
            await reply(frame)

        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except ProtocolError as exc:
                    await refuse(exc)  # ... and hang up: stream position lost
                    break
                if frame is None:
                    break
                task = asyncio.create_task(process(*frame))
                inflight.add(task)
                task.add_done_callback(inflight.discard)
            while inflight:
                await asyncio.gather(*list(inflight))
        except (
            asyncio.CancelledError,
            asyncio.IncompleteReadError,
            ConnectionResetError,
        ):
            # Server shutdown cancels in-flight handlers (on 3.11
            # ``wait_closed`` does not wait for them), and a peer may
            # die mid-payload; finish normally so the streams
            # connection callback doesn't log either as an unhandled
            # error.
            pass
        finally:
            flush()
            writer.close()

    return await asyncio.start_server(
        handle_connection, host, port, limit=MAX_LINE_BYTES
    )


# ----------------------------------------------------------------------
# The archive-service contract: one dispatch table for every tier
# ----------------------------------------------------------------------


async def within_deadline(read: Awaitable[Any], deadline: float | None) -> Any:
    """Await ``read``, abandoning it after ``deadline`` seconds with the
    :class:`DeadlineExceededError` a queueing tier raises — how a tier
    whose reads are not queued honours ``get(deadline=)``."""
    if deadline is None:
        return await read
    try:
        return await asyncio.wait_for(read, deadline)
    except asyncio.TimeoutError:
        raise DeadlineExceededError(
            f"read not finished within its {deadline}s deadline"
        ) from None


class ArchiveEndpoint:
    """The :data:`Handler` of one tier: shared rows plus the tier's own.

    A row is ``async (endpoint, request) -> Response``.  ``role`` names
    the tier in ``metrics.snapshot`` replies and ``unknown_op``
    refusals, ``source`` the process within the role (a node's id; the
    role itself where there is one process).  ``spans`` is the family
    the object-op spans are minted under (``cluster.put``,
    ``sites.get``, ...); ``None`` for a tier that traces its own
    requests.  Every row runs under the caller's shipped trace context.
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

    async def __call__(self, request: Request, envelope: Envelope) -> Response:
        row = self.rows.get(type(request))
        if row is None:
            raise ProtocolError(
                f"op {request.op!r} is not served by the {self.role}",
                code="unknown_op",
            )
        with use_context(envelope.trace):
            return await row(self, request)

    def span(self, op: str, **tags: Any):
        if self.spans is None:
            return nullcontext()
        return trace_span(f"{self.spans}.{op}", **tags)

    # -- the shared rows -----------------------------------------------

    async def _ping(self, request: PingRequest):
        return PongResponse()

    async def _metrics(self, request: MetricsRequest):
        snapshot = self.service.metrics_snapshot()
        return MetricsResponse(metrics=render_prometheus(snapshot))

    async def _metrics_snapshot(self, request: MetricsSnapshotRequest):
        return MetricsSnapshotResponse(
            role=self.role,
            source=self.source,
            snapshot=self.service.metrics_snapshot(),
        )

    async def _stats(self, request: StatsRequest):
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
    MetricsRequest: ("metrics_snapshot", ArchiveEndpoint._metrics),
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
