"""Shared asyncio server loop for every protocol speaker.

The frontend, the cluster coordinator, and the storage nodes all speak
the same framing (:mod:`repro.serve.protocol`); this module owns the
one piece they would otherwise each reimplement: the per-connection
read → dispatch → reply loop.  A frame is read header-then-payload:
one line, then exactly the :func:`~repro.serve.protocol.payload_size`
bytes its tail declares.

Two properties matter:

* **Concurrent handling, serialized writes.**  Each request frame
  spawns its own task, so a slow reconstruction never head-of-line
  blocks a ``ping`` pipelined behind it on the same connection — and
  because multiple handler tasks then race to reply, every write
  happens under a per-connection :class:`asyncio.Lock` so reply frames
  never interleave.  Clients that pipeline (the coordinator's and the
  gateway's :class:`~repro.serve.link.PipelinedLink`) correlate replies
  by the echoed ``id`` envelope field.
* **Bad input gets a typed answer.**  Malformed JSON, unknown ops,
  unsupported versions, mistyped fields and payload bytes the fields do
  not account for are answered with an error frame carrying the
  sender's ``id``, and the connection stays up.  Only a frame whose end
  cannot be found (header line over the stream limit, declared payload
  over the cap) is answered and then hung up on.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable

from .protocol import (
    MAX_LINE_BYTES,
    Envelope,
    ErrorResponse,
    ProtocolError,
    Request,
    Response,
    encode_frame,
    parse_request,
    payload_size,
)

__all__ = ["Handler", "read_frame", "start_line_server"]

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
        write_lock = asyncio.Lock()
        inflight: set[asyncio.Task] = set()

        async def reply(frame: dict[str, Any]) -> None:
            try:
                data = encode_frame(frame)
            except ProtocolError as exc:  # a reply payload over the cap
                data = encode_frame(
                    ErrorResponse.from_exception(exc).to_frame(
                        request_id=frame.get("id")
                    )
                )
            async with write_lock:
                # A peer that hung up (gave up on a deadline, died
                # mid-frame) leaves the reply nowhere to go, and the
                # read loop will see EOF and close.  Raising would only
                # leave an unretrieved task exception, writing on only
                # make asyncio log every dropped reply of a burst.
                if writer.transport.is_closing():
                    return
                try:
                    writer.write(data)
                    await writer.drain()
                except OSError:
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
            writer.close()

    return await asyncio.start_server(
        handle_connection, host, port, limit=MAX_LINE_BYTES
    )
