"""One pipelined client connection to a line server.

The coordinator's node RPCs and the gateway's site RPCs both ride a
:class:`PipelinedLink`: park a future under each request's ``id`` and
write the caller's burst for this peer (one RPC is a burst of one) in
one ``write``, at once when the link is idle, else under its lock
(:func:`repro.cluster.coordinator.link_rpcs` sends to every peer at
once).  The connection's protocol cuts replies with the line server's
:class:`~repro.serve.lineserver.FrameSplitter` and resolves each parked
future inside the transport callback, in whatever order they come.  A
burst waits under the lock while the peer reads down a full write
buffer, never across a reply, so every RPC sent is on the wire.

The link moves whole frames and looks no further into a reply than its
envelope's request id: callers encode requests and parse replies
themselves.  Failure is all-or-nothing: an expired deadline, a refused
connect, a reset, EOF or a torn frame aborts the transport and fails
every RPC still parked on the link with its ``down_error``; the
caller's retry policy takes it from there, and the next RPC reconnects.
"""

from __future__ import annotations

import asyncio
from typing import Sequence

from ..obs.registry import registry
from .errors import NodeUnreachableError
from .lineserver import FrameSplitter
from .protocol import ProtocolError, frame_id

__all__ = ["PipelinedLink"]

Reply = bytes  # one whole reply frame


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
        self._connection: _LinkConnection | None = None
        self._pending: dict[int, asyncio.Future[Reply]] = {}
        self._next_id = 0

    def next_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def burst(
        self, items: Sequence[tuple[int, bytes]], timeout: float | None
    ) -> tuple[list[asyncio.Future[Reply]], asyncio.Task | None]:
        """Park a reply future per ``(request_id, encoded request)`` item
        and send the items in one ``write``: at once if the link is
        connected, unlocked and writable, else from the returned task,
        under the lock (connect within ``timeout``, write, wait for the
        buffer to drain).  The caller awaits the futures, arms their
        deadline (:meth:`expire`) and lets them go (:meth:`forget`)."""
        loop = asyncio.get_running_loop()
        replies = [loop.create_future() for _ in items]
        for (request_id, _), reply in zip(items, replies):
            self._pending[request_id] = reply
        data = b"".join(d for _, d in items)
        connection = self._connection
        if connection and connection.writable.done() and not self._lock.locked():
            self._write(data)
            return replies, None
        return replies, loop.create_task(self._send(data, replies[0], timeout))

    async def _send(
        self, data: bytes, first: asyncio.Future, timeout: float | None
    ) -> None:
        async with self._lock:
            try:
                # A drop fails every parked future at once: if it
                # happened while this burst waited (for the lock, for
                # the connect), nothing is sent.
                if self._connection is None and not first.done():
                    await self._connect(timeout)
                if not first.done():
                    await asyncio.shield(self._write(data))
            except (OSError, asyncio.TimeoutError) as exc:
                self._drop(f"unreachable: {exc}")

    def _write(self, data: bytes) -> asyncio.Future:
        self._connection.transport.write(data)
        return self._connection.writable

    def expire(self, replies: Sequence[asyncio.Future], timeout: float) -> None:
        """The deadline of ``replies``: drop the link if one is unanswered."""
        if not all(reply.done() for reply in replies):  # else none is late
            registry().counter(f"{self.family}.timeouts").inc()
            self._drop(f"gave no reply within the {timeout}s RPC deadline")

    def forget(self, items: Sequence[tuple[int, bytes]], replies) -> None:
        """Unpark a burst: a late reply to it is dropped."""
        for (request_id, _), reply in zip(items, replies):
            self._pending.pop(request_id, None)
            if reply.done() and not reply.cancelled():
                reply.exception()  # an unawaited failure logs nothing

    def reset(self) -> None:
        """Abort the connection, failing whatever is parked on the link."""
        self._drop("connection reset")

    def drop(self) -> None:
        """:meth:`reset`, with the verdict that the peer is down."""
        self.alive = False
        self.reset()

    async def _connect(self, timeout: float | None) -> None:
        connect = asyncio.get_running_loop().create_connection(
            lambda: _LinkConnection(self), self.host, self.port
        )
        _, self._connection = await asyncio.wait_for(connect, timeout)

    def _drop(self, reason: str) -> None:
        connection, self._connection = self._connection, None
        if connection is not None:
            # abort, not close: close waits to flush the write buffer,
            # and a peer that stopped reading would keep the burst
            # waiting on it (and the link lock) parked forever.
            connection.transport.abort()
        pending, self._pending = self._pending, {}
        for reply in pending.values():
            if not reply.done():
                reply.set_exception(
                    self.down_error(f"{self.label} {reason}")
                )


class _LinkConnection(asyncio.Protocol):
    """The transport callbacks of one connection of a link."""

    def __init__(self, link: PipelinedLink) -> None:
        self.link = link
        self.frames = FrameSplitter()
        # Pending while the write buffer is past its high-water mark,
        # until it drains or the connection ends.
        self.writable = asyncio.get_running_loop().create_future()
        self.writable.set_result(None)

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        pending = self.link._pending
        try:
            for frame in self.frames.feed(data):
                reply = pending.pop(frame_id(frame), None)
                if reply is not None and not reply.done():
                    reply.set_result(frame)
        except ProtocolError as exc:
            self.lost(f"unreachable: {exc}")

    def eof_received(self) -> None:
        self.lost("closed mid-frame" if self.frames.parts else "closed the connection")

    def connection_lost(self, exc: Exception | None) -> None:
        self.resume_writing()
        self.lost(f"unreachable: {exc}" if exc else "closed the connection")

    def lost(self, reason: str) -> None:
        if self.link._connection is self:  # else ``_drop`` let it go already
            self.link._drop(reason)

    def pause_writing(self) -> None:
        self.writable = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        if not self.writable.done():
            self.writable.set_result(None)
