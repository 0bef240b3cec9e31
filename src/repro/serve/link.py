"""One pipelined client connection to a line server.

The coordinator's node RPCs and the gateway's site RPCs both ride a
:class:`PipelinedLink`: write a burst of requests (whatever the caller
holds for this peer; one RPC is a burst of one) under one lock, one
``write`` + ``drain`` and one deadline timer, park a future under each
``id``, and let the connection's one reader task resolve replies in
whatever order :mod:`repro.serve.lineserver` sends them.  The lock is
never held across a reply, so every RPC gathered is on the wire at once.

The link moves bytes and looks no further into them than the header's
``id``: callers encode requests and parse replies themselves, and the
header it decoded to find the ``id`` comes back with the reply so that
``parse_response`` need not decode the line again.  Failure
is all-or-nothing: an expired deadline, a refused connect, a reset, EOF
or a torn frame aborts the transport and fails every RPC still parked
on the link with its ``down_error``; the caller's retry policy takes it
from there, and the next RPC reconnects.
"""

from __future__ import annotations

import asyncio
from typing import Sequence

from ..obs.registry import registry
from .errors import NodeUnreachableError
from .lineserver import read_frame
from .protocol import MAX_LINE_BYTES, ProtocolError, decode_frame

__all__ = ["PipelinedLink", "check_rpc_timeout"]

Reply = tuple[bytes, bytes, dict]  # header line, raw payload, decoded header


def check_rpc_timeout(timeout: float | None) -> None:
    """Refuse a deadline that is not ``None`` or positive seconds (NaN
    would expire every RPC at once; ``True`` is not one second)."""
    if isinstance(timeout, bool):
        raise TypeError("rpc_timeout must be a number of seconds, not a bool")
    if timeout is not None and not timeout > 0:  # NaN fails this too
        raise ValueError(f"rpc_timeout must be positive, got {timeout}")


class PipelinedLink:
    """A lazily connected, id-correlated RPC connection to one peer."""

    # What a transport failure raises, and the metric/span family its
    # RPCs are counted under; subclasses name their own.
    down_error: type[Exception] = NodeUnreachableError
    family = "serve.link"

    def __init__(self, host: str, port: int, label: str, **span_tags: str):
        self.host = host
        self.port = port
        self.label = label
        self.span_tags = span_tags
        # The caller's liveness verdict: False once its retry policy
        # gave up on the peer, True again on the next reply.
        self.alive = True
        self._lock = asyncio.Lock()
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._pending: dict[int, asyncio.Future[Reply]] = {}
        self._next_id = 0

    def next_id(self) -> int:
        self._next_id += 1
        return self._next_id

    async def exchange_many(
        self, items: Sequence[tuple[int, bytes]], timeout: float | None
    ) -> list[Reply | Exception]:
        """Send ``(request_id, encoded request)`` items as one burst.

        ``timeout`` bounds it all (connect, write, every reply).  Returns
        per item its reply or the ``down_error`` that left it unanswered.
        """
        loop = asyncio.get_running_loop()
        replies = [loop.create_future() for _ in items]
        for (request_id, _), reply in zip(items, replies):
            self._pending[request_id] = reply
        timer = (
            loop.call_later(timeout, self._expire, replies, timeout)
            if timeout is not None
            else None
        )
        try:
            async with self._lock:
                try:
                    # A drop fails every parked future at once: if it
                    # happened while this burst waited (for the lock,
                    # for the connect), nothing is sent.
                    if self._writer is None and not replies[0].done():
                        await self._connect(timeout)
                    if not replies[0].done():
                        self._writer.write(b"".join(data for _, data in items))
                        await self._writer.drain()
                except (OSError, asyncio.TimeoutError) as exc:
                    self._drop(f"unreachable: {exc}")
            outcomes: list[Reply | Exception] = []
            for reply in replies:
                try:
                    outcomes.append(await reply)
                except self.down_error as exc:
                    outcomes.append(exc)
            return outcomes
        finally:
            if timer is not None:
                timer.cancel()
            for request_id, _ in items:
                self._pending.pop(request_id, None)

    def reset(self) -> None:
        """Abort the connection, failing whatever is parked on the link."""
        self._drop("connection reset")

    def drop(self) -> None:
        """:meth:`reset`, with the verdict that the peer is down."""
        self.alive = False
        self.reset()

    async def _connect(self, timeout: float | None) -> None:
        reader, self._writer = await asyncio.wait_for(
            asyncio.open_connection(
                self.host, self.port, limit=MAX_LINE_BYTES
            ),
            timeout,
        )
        self._reader_task = asyncio.create_task(self._read_replies(reader))

    async def _read_replies(self, reader: asyncio.StreamReader) -> None:
        reason = "closed the connection"
        try:
            while (frame := await read_frame(reader)) is not None:
                header = decode_frame(frame[0])
                reply = self._pending.pop(header.get("id"), None)
                if reply is not None and not reply.done():
                    reply.set_result((*frame, header))
        except asyncio.IncompleteReadError:
            reason = "closed mid-frame"
        except (OSError, ProtocolError) as exc:
            reason = f"unreachable: {exc}"
        finally:
            # Cancelled by ``_drop``, or superseded after it: the
            # connection this task read is no longer the link's.
            if self._reader_task is asyncio.current_task():
                self._reader_task = None
                self._drop(reason)

    def _expire(self, replies: list[asyncio.Future], timeout: float) -> None:
        if not all(reply.done() for reply in replies):  # else none is late
            registry().counter(f"{self.family}.timeouts").inc()
            self._drop(f"gave no reply within the {timeout}s RPC deadline")

    def _drop(self, reason: str) -> None:
        writer, self._writer = self._writer, None
        if writer is not None:
            # abort, not close: close waits to flush the write buffer,
            # and a peer that stopped reading would keep ``drain``
            # waiters (and the link lock) parked forever.
            writer.transport.abort()
        task, self._reader_task = self._reader_task, None
        if task is not None:
            task.cancel()
        pending, self._pending = self._pending, {}
        for reply in pending.values():
            if not reply.done():
                reply.set_exception(
                    self.down_error(f"{self.label} {reason}")
                )
