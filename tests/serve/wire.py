"""Hand-built frames and readable replies for tests that speak the wire
directly instead of through a client.

:func:`frame` packs an envelope around raw header and payload bytes,
so a test can write any frame, malformed ones included.  A reply comes
back as a dict with the shape the old JSON header lines had: ``v``,
``ok``, ``kind``, ``id`` (when set) and every field that is not
``None``.
"""

import asyncio
import struct
from typing import Any

from repro.serve import protocol as proto

# Request op name -> wire code.
OPS = {cls.op: code for code, cls in proto._REQUEST_TYPES.items()}
BOGUS_OP = 0xFFFF  # no request registers this code


def frame(
    op: str | int,
    fmt: str = "",
    *values: Any,
    header: bytes = b"",
    payload: bytes = b"",
    id: int = 0,
    v: int = proto.PROTOCOL_VERSION,
    flags: int = 0,
    ids: bytes = b"",
    hlen: int | None = None,
    plen: int | None = None,
) -> bytes:
    """One frame: ``values`` packed by ``fmt`` (the fixed fields), then
    ``header``, then ``payload``; ``hlen`` / ``plen`` override the
    lengths the envelope declares."""
    head = struct.pack("<" + fmt, *values) + header
    return (
        proto.ENVELOPE.pack(
            v,
            flags,
            OPS[op] if isinstance(op, str) else op,
            len(head) if hlen is None else hlen,
            len(payload) if plen is None else plen,
            id,
            ids,
        )
        + head
        + payload
    )


def block_put(
    lengths, keys: bytes, payload: bytes, *, id: int = 5, run: int | None = None
) -> bytes:
    """A ``block.put`` frame: NUL-joined ``keys`` and a run of blocks
    ``lengths`` long as its header claims them, the run claiming ``run``
    bytes (all of ``payload`` by default), ``payload`` as sent."""
    return frame(
        "block.put",
        "IIII",
        len(keys.split(b"\0")) if keys else 0,
        len(keys),
        len(lengths),
        len(payload) if run is None else run,
        header=keys + struct.pack(f"<{len(lengths)}I", *lengths),
        payload=payload,
        id=id,
    )


async def read_frame(reader: asyncio.StreamReader) -> bytes | None:
    """The next whole frame off an asyncio stream, for fake peers.

    ``None`` at a clean EOF; :class:`asyncio.IncompleteReadError` when
    the stream ends inside a frame; :class:`~repro.serve.protocol.ProtocolError`
    when the frame's end cannot be found or is not worth reading to.
    """
    prefix = await reader.read(proto.ENVELOPE.size)
    if not prefix:
        return None
    if len(prefix) < proto.ENVELOPE.size and prefix[:1] != b"{":
        prefix += await reader.readexactly(proto.ENVELOPE.size - len(prefix))
    return prefix + await reader.readexactly(proto.body_size(prefix))


def reply_dict(data: bytes) -> dict[str, Any]:
    """A whole reply frame as a dict (see the module docs)."""
    response, envelope = proto.parse_response(data)
    reply = {"v": data[0], "ok": response.ok, "kind": response.kind}
    if envelope.id:
        reply["id"] = envelope.id
    reply.update(
        (name, value)
        for name, value in vars(response).items()
        if value is not None
    )
    return reply


async def read_reply(reader) -> dict[str, Any]:
    """The next reply off an asyncio stream, as :func:`reply_dict`."""
    return reply_dict(await read_frame(reader))


def recv_reply(file) -> dict[str, Any]:
    """The next reply off a blocking binary file (``sock.makefile``)."""
    prefix = file.read(proto.ENVELOPE.size)
    return reply_dict(prefix + file.read(proto.body_size(prefix)))
