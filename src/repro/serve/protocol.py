"""Versioned binary wire protocol shared by every network surface.

A frame is three parts back to back, the same for requests and replies
on every tier (frontend, coordinator, gateway, storage node); the
layout and the op and kind codes are tabled in ``docs/SERVE.md``:

* **Envelope** — :data:`ENVELOPE`, 36 bytes: version, flags, op or kind
  code, header length, payload length, request id, trace and span id.
  A reader takes it, then the rest in one exact read (:func:`body_size`
  holds header and payload to :data:`MAX_HEADER_BYTES` and
  :data:`MAX_PAYLOAD_BYTES` first).
* **Header** — the typed fields.  Each :class:`Request` (``op``) and
  :class:`Response` (``kind``) dataclass registers under a code and
  compiles its fields once into one ``struct`` layout, followed by
  their variable parts (strings, NUL-joined keys, u32 integers, a
  block run's sizes).  JSON survives only as the body of free-form
  ``dict`` fields.
* **Payload** — the raw bytes of every ``bytes`` field and every
  :class:`~repro.core.codec.BlockRun`'s blocks, back to back, in
  field order.

:func:`encode_request` / :func:`parse_request` and :func:`encode_frame`
/ :func:`parse_response` are the whole codec.  A parser checks every
length against the bytes that came and types every failure as a
:class:`ProtocolError` with a stable ``code``; the envelope says where
the frame ends, so the connection survives it.  Every version keeps
the envelope's layout: another version is refused with
``unsupported_version`` carrying the frame's id, and so is a JSON
header line (versions 1 to 4, first byte ``{``).  :func:`error_code`
maps every exception a handler raises onto the stable codes
(``overloaded``, ``deadline``, ``closed``, ``not_found``,
``data_loss``, ``unavailable``, ``node_down``, ``bad_request``,
``unknown_op``, ``unsupported_version``, ``internal``), and clients
rebuild a typed exception from the code (:func:`exception_for`).
``node_down`` marks a peer unreachable at the transport level, distinct
from ``unavailable`` (peer answered, storage dark).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from typing import Any, ClassVar, Mapping, NamedTuple

from .._checks import check_count, check_seconds
from ..core.codec import BlockRun
from ..storage.archive import DataLossError
from ..storage.device import TransientUnavailableError
from .errors import (
    DeadlineExceededError,
    NodeUnreachableError,
    ServiceClosedError,
    ServiceOverloadedError,
)

__all__ = [
    "ENVELOPE",
    "MAX_HEADER_BYTES",
    "MAX_PAYLOAD_BYTES",
    "PROTOCOL_VERSION",
    "Envelope",
    "ProtocolError",
    "RemoteError",
    "Request",
    "Response",
    "PingRequest",
    "StatsRequest",
    "MetricsSnapshotRequest",
    "PutRequest",
    "GetRequest",
    "StatusRequest",
    "RepairRequest",
    "BlockPutRequest",
    "BlockFetchRequest",
    "BlockDeleteRequest",
    "BlockListRequest",
    "NodeAdminRequest",
    "ClusterRepairStatusRequest",
    "ClusterSnapshotRequest",
    "ClusterJoinRequest",
    "ClusterLeaveRequest",
    "FetchStripeRequest",
    "PongResponse",
    "StripeBlocksResponse",
    "StatsResponse",
    "MetricsSnapshotResponse",
    "ObjectInfoResponse",
    "BlockRunResponse",
    "KeyListResponse",
    "AckResponse",
    "StatusResponse",
    "ErrorResponse",
    "body_size",
    "encode_frame",
    "encode_request",
    "error_code",
    "exception_for",
    "frame_id",
    "parse_request",
    "parse_response",
]

PROTOCOL_VERSION = 6

# version, flags, op/kind code, header length, payload length, request
# id, trace id and span id.
ENVELOPE = struct.Struct("<BBHIIQ16s")
_ID = struct.Struct("<Q")  # at offset 12
TRACED = 1  # the envelope's trace and span ids are a trace context

# Longest header: bounds a ``block.list`` reply (~10^5 keys), never an
# object.  Checked, like the payload cap, before anything is read.
MAX_HEADER_BYTES = 8 * 2**20
MAX_PAYLOAD_BYTES = 256 * 2**20

# ``json.dumps`` with separators builds a ``JSONEncoder`` per call, and
# ``json.loads`` runs a whitespace regex on both ends of the text.
_dump_json = json.JSONEncoder(separators=(",", ":")).encode
_load_json = json.JSONDecoder().raw_decode


class ProtocolError(ValueError):
    """A frame the protocol cannot accept (always answerable).

    Carries the stable error ``code`` plus the correlation ``id`` when
    it was recoverable from the offending frame, so servers can still
    address the reply.
    """

    def __init__(
        self, message: str, *, code: str = "bad_request", request_id: Any = None
    ):
        self.code = code
        self.request_id = request_id
        super().__init__(message)


class RemoteError(RuntimeError):
    """A server-side failure with no richer local exception type.

    Clients raise taxonomy-specific exceptions where a faithful local
    type exists (:func:`exception_for`); everything else — data loss,
    internal faults, protocol rejections from the server — surfaces as
    a ``RemoteError`` carrying the stable ``code``.
    """

    def __init__(self, message: str, *, code: str = "internal"):
        self.code = code
        super().__init__(message)

    @property
    def retryable(self) -> bool:
        return self.code in ("overloaded", "unavailable")


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------

# Exception type -> stable wire code, most specific first (the first
# isinstance match wins).  New failure modes must pick an existing code
# or extend this table — handlers never invent ad-hoc strings.
_ERROR_TAXONOMY: tuple[tuple[type, str], ...] = (
    (ServiceOverloadedError, "overloaded"),
    (DeadlineExceededError, "deadline"),
    (ServiceClosedError, "closed"),
    (DataLossError, "data_loss"),
    (TransientUnavailableError, "unavailable"),
    (NodeUnreachableError, "node_down"),
    (KeyError, "not_found"),
    (ValueError, "bad_request"),
)


def error_code(exc: BaseException) -> str:
    """The stable wire ``code`` for an exception (see module docs)."""
    if isinstance(exc, ProtocolError):
        return exc.code
    if isinstance(exc, RemoteError):
        return exc.code
    for exc_type, code in _ERROR_TAXONOMY:
        if isinstance(exc, exc_type):
            return code
    return "internal"


def exception_for(code: str, message: str) -> Exception:
    """Rebuild the most faithful client-side exception for a code."""
    if code == "overloaded":
        return ServiceOverloadedError(message)
    if code == "deadline":
        return DeadlineExceededError(message)
    if code == "closed":
        return ServiceClosedError(message)
    if code == "not_found":
        return KeyError(message)
    if code == "unavailable":
        return TransientUnavailableError(message)
    if code == "node_down":
        return NodeUnreachableError(message)
    return RemoteError(message, code=code)


# ----------------------------------------------------------------------
# The codec: field layouts, encode, decode
# ----------------------------------------------------------------------

# Field annotation -> its struct slots.  Scalars live in their slot;
# every other kind's slots hold the sizes of its variable parts.
_SLOTS = {
    "str": "I",
    "int": "q",
    "bool": "?",
    "float": "d",
    "bytes": "I",
    "dict": "I",
    "tuple[str, ...]": "II",
    "tuple[int, ...]": "I",
    "BlockRun": "II",
}
_SCALARS = ("int", "bool", "float")
_ABSENT = {kind: (0,) * len(slots) for kind, slots in _SLOTS.items()}


@lru_cache(maxsize=256)
def _lengths(count: int) -> struct.Struct:
    """The layout of ``count`` u32 lengths."""
    return struct.Struct(f"<{count}I")


def _join_keys(keys) -> bytes:
    text = "\0".join(keys)
    if text.count("\0") != max(len(keys) - 1, 0):
        raise ProtocolError("a key holds a NUL character")
    return text.encode()


def _json_dict(data: bytes, name: str) -> dict:
    """One compact JSON object filling ``data``, field ``name``'s value."""
    text = data.decode()
    try:
        value, end = _load_json(text)
    except ValueError:
        end = -1
    if end != len(text) or not isinstance(value, dict):
        raise ProtocolError(f"field {name!r} must be one JSON dict")
    return value


def _wire(table: dict[int, type], code: int):
    """Freeze ``cls`` as a dataclass, compile its layout once, and
    register it in ``table`` under ``code``."""

    def register(cls):
        cls = dataclass(frozen=True)(cls)
        fmt, layout = "<", []
        for f in fields(cls):
            kind = f.type.removesuffix(" | None")
            optional = f.default is None
            layout.append((f.name, kind, optional, len(fmt) - 1))
            fmt += "?" * optional + _SLOTS[kind]
        cls.wire_code, cls._layout = code, tuple(layout)
        cls._fixed = struct.Struct(fmt)
        cls._head = struct.Struct(ENVELOPE.format + fmt[1:])
        table[code] = cls
        return cls

    return register


def _encode(obj: Any, request_id: int, flags: int, ids: bytes):
    """The whole frame: envelope and fixed fields in one pack, then the
    header's variable parts and the payload."""
    fixed: list = []
    var: list = []
    payload: list = []
    try:
        for name, kind, optional, _ in obj._layout:
            value = getattr(obj, name)
            if optional:
                fixed.append(value is not None)
                if value is None:
                    fixed += _ABSENT[kind]
                    continue
            if kind in _SCALARS:
                fixed.append(value)
            elif kind == "bytes":
                fixed.append(len(value))
                payload.append(value)
            elif kind == "str" or kind == "dict":
                data = (_dump_json(value) if kind == "dict" else value).encode()
                fixed.append(len(data))
                var.append(data)
            elif kind == "tuple[str, ...]":
                data = _join_keys(value)
                fixed += (len(value), len(data))
                var.append(data)
            else:  # u32 integers, or a run's sizes before its bytes
                ints = value.sizes if kind == "BlockRun" else value
                fixed.append(len(ints))
                var.append(_lengths(len(ints)).pack(*ints))
                if kind == "BlockRun":
                    fixed.append(len(value.data))
                    payload.append(value.data)
        var = b"".join(var)
        hlen, plen = obj._fixed.size + len(var), sum(map(len, payload))
        if hlen > MAX_HEADER_BYTES or plen > MAX_PAYLOAD_BYTES:
            raise ProtocolError(
                f"frame of {hlen} header and {plen} payload bytes is over "
                f"the {MAX_HEADER_BYTES}- or {MAX_PAYLOAD_BYTES}-byte cap"
            )
        head = obj._head.pack(
            PROTOCOL_VERSION, flags, obj.wire_code, hlen, plen, request_id,
            ids, *fixed,
        )
    except (struct.error, UnicodeEncodeError) as exc:
        raise ProtocolError(f"cannot encode {obj!r}: {exc}") from None
    frame = b"".join((head, var, *payload))
    if len(frame) != ENVELOPE.size + hlen + plen:
        raise ProtocolError("a buffer field is not a flat byte view")
    return frame


def _overrun(name: str, where: str, size: int, left: int) -> ProtocolError:
    return ProtocolError(
        f"field {name!r} claims {size} {where} bytes, {left} are left"
    )


def _decode(cls, frame: bytes, header_end: int) -> tuple[Any, int]:
    """The typed fields, and where the header bytes they claim end.

    Every length is checked against what is left before it is taken;
    the payload must be claimed to its last byte.
    """
    var = ENVELOPE.size + cls._fixed.size
    if var > header_end:
        raise ProtocolError(
            f"header of {header_end - ENVELOPE.size} bytes is shorter "
            f"than its {cls._fixed.size} fixed bytes"
        )
    vals = cls._fixed.unpack_from(frame, ENVELOPE.size)
    pay, pay_end, values = header_end, len(frame), []
    for name, kind, optional, i in cls._layout:
        if optional:
            if not vals[i]:
                values.append(None)
                continue
            i += 1
        if kind in _SCALARS:
            values.append(vals[i])
            continue
        if kind == "bytes":
            end = pay + vals[i]
            if end > pay_end:
                raise _overrun(name, "payload", vals[i], pay_end - pay)
            values.append(frame[pay:end])
            pay = end
            continue
        if kind == "str" or kind == "dict":
            end = var + vals[i]
            if end > header_end:
                raise _overrun(name, "header", vals[i], header_end - var)
            data = frame[var:end]
            values.append(
                data.decode()
                if kind == "str"
                else _json_dict(data, name)
            )
            var = end
            continue
        if kind == "tuple[str, ...]":  # NUL-joined keys
            count, end = vals[i], var + vals[i + 1]
            if end > header_end:
                raise _overrun(name, "header", vals[i + 1], header_end - var)
            keys = frame[var:end].decode().split("\0") if count else []
            if len(keys) != count:
                raise ProtocolError(
                    f"field {name!r} holds {len(keys)} keys, its count is {count}"
                )
            values.append(tuple(keys))
            var = end
            continue
        end = var + 4 * vals[i]  # u32 integers: a run's sizes, then its bytes
        if end > header_end:
            raise _overrun(name, "header", end - var, header_end - var)
        ints, var = _lengths(vals[i]).unpack_from(frame, var), end
        if kind == "BlockRun":
            end = pay + vals[i + 1]
            if end > pay_end:
                raise _overrun(name, "payload", vals[i + 1], pay_end - pay)
            ints, pay = BlockRun(ints, frame[pay:end]), end
        values.append(ints)
    if pay != pay_end:
        raise ProtocolError(f"payload has {pay_end - pay} bytes no field claims")
    return cls(*values), var


# ----------------------------------------------------------------------
# Envelope
# ----------------------------------------------------------------------


class Envelope(NamedTuple):
    """Per-frame metadata outside the typed body: the request id (0 for
    none) and a request's trace context."""

    id: int = 0
    trace: dict[str, str] | None = None


def _refuse_json_line(data: bytes) -> None:
    if data[:1] == b"{":
        raise ProtocolError(
            "a JSON header line is protocol version 4 or older; send "
            f"version {PROTOCOL_VERSION} binary frames",
            code="unsupported_version",
        )


def body_size(prefix: bytes) -> int:
    """Header plus payload bytes behind an envelope, for one exact read.

    Raises :class:`ProtocolError` (with the frame's id where it has
    one) for what a reader cannot skip and must hang up on: a JSON
    header line, or a header or payload over its cap.
    """
    _refuse_json_line(prefix)
    _, _, _, hlen, plen, request_id, _ = ENVELOPE.unpack(prefix)
    if hlen > MAX_HEADER_BYTES or plen > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"frame declares {hlen} header and {plen} payload bytes, over "
            f"the {MAX_HEADER_BYTES}- or {MAX_PAYLOAD_BYTES}-byte cap",
            request_id=request_id,
        )
    return hlen + plen


def frame_id(frame: bytes) -> int:
    """The request id a frame's envelope carries."""
    return _ID.unpack_from(frame, 12)[0]


def _parse(frame: bytes, table: dict, flags_allowed: int, what: str):
    try:
        version, flags, code, hlen, plen, request_id, ids = (
            ENVELOPE.unpack_from(frame)
        )
    except struct.error:
        _refuse_json_line(frame)
        raise ProtocolError(
            f"frame of {len(frame)} bytes is shorter than its envelope"
        ) from None
    if version != PROTOCOL_VERSION:
        _refuse_json_line(frame)
        raise ProtocolError(
            f"protocol version {version} not supported (send version "
            f"{PROTOCOL_VERSION})",
            code="unsupported_version",
            request_id=request_id,
        )
    cls = table.get(code)
    header_end = ENVELOPE.size + hlen
    try:
        if header_end + plen != len(frame):
            raise ProtocolError(
                f"envelope declares {hlen} header and {plen} payload "
                f"bytes, {len(frame) - ENVELOPE.size} followed it"
            )
        if flags & ~flags_allowed:
            raise ProtocolError(f"flags {flags:#x} not valid on a {what}")
        if cls is None:
            raise ProtocolError(
                f"unknown {what} code {code}",
                code="unknown_op" if what == "request" else "bad_request",
            )
        obj, var = _decode(cls, frame, header_end)
        if var != header_end:
            raise ProtocolError(
                f"header has {header_end - var} bytes no field claims"
            )
    except (ValueError, RecursionError) as exc:
        # a ProtocolError, bad UTF-8, a field's own check, or JSON nested
        # past the interpreter's depth
        raise ProtocolError(
            str(exc),
            code=getattr(exc, "code", "bad_request"),
            request_id=request_id,
        ) from None
    if flags & TRACED:
        trace = {"trace_id": ids[:8].hex(), "span_id": ids[8:].hex()}
        return obj, Envelope._make((request_id, trace))
    return obj, Envelope._make((request_id, None))


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """Base class: one typed operation, discriminated by ``op``."""

    op: ClassVar[str]
    # Fields that must hold a non-empty string.
    _required: ClassVar[tuple[str, ...]] = ()

    def __post_init__(self) -> None:
        for name in self._required:
            if not getattr(self, name):
                raise ProtocolError(f"{self.op!r} needs a string {name!r}")


_REQUEST_TYPES: dict[int, type[Request]] = {}
_request = partial(_wire, _REQUEST_TYPES)


@_request(1)
class PingRequest(Request):
    op: ClassVar[str] = "ping"


@_request(2)
class StatsRequest(Request):
    op: ClassVar[str] = "stats"


@_request(4)
class MetricsSnapshotRequest(Request):
    """Raw registry snapshot of the answering process (scrape plane),
    structured, so a fleet scraper can merge counters and histograms
    across processes and a client can render it as Prometheus text."""

    op: ClassVar[str] = "metrics.snapshot"


@_request(5)
class PutRequest(Request):
    """Store an object (a coordinator stripes it; a gateway replicates
    it to every site by forwarding this same request)."""

    op: ClassVar[str] = "put"
    name: str = ""
    payload: bytes = b""

    _required = ("name",)


@_request(6)
class GetRequest(Request):
    """Reconstruct one object.

    The reply carries size + SHA-256, and the bytes only when
    ``want_payload``; ``deadline`` (positive seconds) bounds the read
    on tiers that queue it.
    """

    op: ClassVar[str] = "get"
    name: str = ""
    want_payload: bool = False
    deadline: float | None = None

    _required = ("name",)

    def __post_init__(self) -> None:
        super().__post_init__()
        check_seconds(self.deadline, "'get' deadline")


@_request(7)
class StatusRequest(Request):
    """The tier's view of itself and its members (nodes or sites)."""

    op: ClassVar[str] = "status"


@_request(8)
class RepairRequest(Request):
    """Run the repair scheduler (a gateway: every site's, then
    cross-site re-injection).

    ``mode`` selects how much work one call does: ``drain`` (default)
    scans and runs budgeted cycles until the queue empties, ``cycle``
    runs exactly one bytes-budgeted cycle over the existing queue, and
    ``scan`` only refreshes the queue from scrub telemetry without
    moving a byte.
    """

    op: ClassVar[str] = "repair"
    mode: str = "drain"

    _MODES: ClassVar[tuple[str, ...]] = ("drain", "cycle", "scan")

    def __post_init__(self) -> None:
        if self.mode not in self._MODES:
            raise ProtocolError(
                f"'repair' mode must be one of {self._MODES}"
            )


@_request(9)
class BlockPutRequest(Request):
    """Bulk block write: one RPC stores the whole batch, ``keys[i]``
    naming the run's block ``i``, or none of it when the node's data
    plane is dark."""

    op: ClassVar[str] = "block.put"
    keys: tuple[str, ...] = ()
    blocks: BlockRun = BlockRun()

    def __post_init__(self) -> None:
        sizes, data = self.blocks
        if len(sizes) != len(self.keys) or sum(sizes) != len(data):
            raise ProtocolError(
                f"'block.put' names {len(self.keys)} keys for a run of "
                f"{len(sizes)} blocks in {len(data)} bytes"
            )

    @classmethod
    def of(cls, blocks: Mapping[str, Any]) -> "BlockPutRequest":
        """The batch ``{key: block}``, in its order."""
        return cls(tuple(blocks), BlockRun.of(blocks.values()))


@_request(10)
class BlockFetchRequest(Request):
    """Bulk block read: one RPC returns every held block of the batch,
    in request order, and lists the keys the node lacks."""

    op: ClassVar[str] = "block.fetch"
    keys: tuple[str, ...] = ()


@_request(11)
class BlockDeleteRequest(Request):
    """Bulk block delete; the ack counts the keys that were held."""

    op: ClassVar[str] = "block.delete"
    keys: tuple[str, ...] = ()


@_request(12)
class BlockListRequest(Request):
    op: ClassVar[str] = "block.list"
    prefix: str = ""


@_request(13)
class NodeAdminRequest(Request):
    """Storage-node fault control.

    ``interrupt``/``restore``/``step`` drive the availability process;
    ``partition``/``heal`` make the node accept TCP but never answer
    (a network partition, healed on demand); ``slow`` delays every
    data-plane reply by ``delay_seconds`` (0 restores full speed).
    """

    op: ClassVar[str] = "node.admin"
    action: str = ""
    delay_seconds: float | None = None

    _ACTIONS: ClassVar[tuple[str, ...]] = (
        "interrupt", "restore", "step", "partition", "heal", "slow"
    )

    def __post_init__(self) -> None:
        if self.action not in self._ACTIONS:
            raise ProtocolError(
                f"'node.admin' action must be one of {self._ACTIONS}"
            )
        check_seconds(
            self.delay_seconds, "'node.admin' delay_seconds", zero=True
        )


@_request(14)
class ClusterRepairStatusRequest(Request):
    """Inspect the repair scheduler: queue, budget, lifetime totals."""

    op: ClassVar[str] = "cluster.repair_status"


@_request(15)
class ClusterSnapshotRequest(Request):
    """Compact the coordinator WAL into a fresh snapshot."""

    op: ClassVar[str] = "cluster.snapshot"


def check_port(port: Any) -> int:
    """A TCP port a member can be reached on: an integer in 1..65535."""
    return check_count(port, "'cluster.join' port", 1, at_most=65535)


@_request(16)
class ClusterJoinRequest(Request):
    op: ClassVar[str] = "cluster.join"
    node_id: str = ""
    host: str = ""
    port: int = 0

    _required = ("node_id", "host")

    def __post_init__(self) -> None:
        super().__post_init__()
        check_port(self.port)


@_request(17)
class ClusterLeaveRequest(Request):
    op: ClassVar[str] = "cluster.leave"
    node_id: str = ""

    _required = ("node_id",)


@_request(18)
class FetchStripeRequest(Request):
    """Raw stripe read for cross-site coupled decode.

    ``seq`` is the ordinal into the object's manifest (0..stripes-1),
    not the coordinator's global stripe index — ordinals line up
    across federated sites that striped the same object independently.
    The coordinator answers with whatever blocks currently survive; it
    does NOT decode, so a site with an uncoverable erasure can still
    contribute its partial stripe to a federation-level decode.
    """

    op: ClassVar[str] = "cluster.fetch_stripe"
    name: str = ""
    seq: int = 0

    _required = ("name",)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.seq < 0:
            raise ProtocolError(
                "'cluster.fetch_stripe' seq must be non-negative"
            )


def encode_request(
    request: Request,
    *,
    request_id: int = 0,
    trace: dict[str, str] | None = None,
) -> bytes:
    """One typed request as a whole frame (envelope, header, payload)."""
    if trace is None:
        return _encode(request, request_id, 0, b"")
    try:
        ids = bytes.fromhex(trace["trace_id"]) + bytes.fromhex(trace["span_id"])
    except (KeyError, TypeError, ValueError):
        ids = b""
    if len(ids) != 16:
        raise ProtocolError(
            "a trace context is 16 hex digits of trace_id and 16 of span_id"
        )
    return _encode(request, request_id, TRACED, ids)


def parse_request(frame: bytes) -> tuple[Request, Envelope]:
    """Parse one whole frame into ``(request, envelope)``.

    Raises :class:`ProtocolError` — carrying the frame's id wherever
    the envelope was readable — for another version, an unknown op,
    mistyped or out-of-range fields, and header or payload bytes that
    do not add up.
    """
    return _parse(frame, _REQUEST_TYPES, TRACED, "request")


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Response:
    """Base class: one typed reply, discriminated by ``kind``."""

    kind: ClassVar[str]
    ok: ClassVar[bool] = True


_RESPONSE_TYPES: dict[int, type[Response]] = {}
_response = partial(_wire, _RESPONSE_TYPES)


@_response(129)
class PongResponse(Response):
    kind: ClassVar[str] = "pong"
    pong: bool = True


@_response(130)
class StatsResponse(Response):
    kind: ClassVar[str] = "stats"
    stats: dict = None  # type: ignore[assignment]


@_response(132)
class MetricsSnapshotResponse(Response):
    """One process's registry snapshot, labelled for fleet merging."""

    kind: ClassVar[str] = "metrics_snapshot"
    role: str = ""
    source: str = ""
    snapshot: dict = None  # type: ignore[assignment]


@_response(133)
class ObjectInfoResponse(Response):
    """A reconstructed object: size + digest, payload only on request."""

    kind: ClassVar[str] = "object"
    name: str = ""
    size: int = 0
    sha256: str = ""
    payload: bytes | None = None


@_response(134)
class BlockRunResponse(Response):
    """A ``block.fetch`` reply: the held blocks in request order, and
    the keys not held; no key travels back with its block."""

    kind: ClassVar[str] = "blocks"
    blocks: BlockRun = BlockRun()
    missing: tuple[str, ...] = ()


@_response(135)
class StripeBlocksResponse(Response):
    """One stripe's surviving raw blocks: the run's block ``i`` is
    graph node ``nodes[i]``'s.  ``payload_length`` is the stripe's
    recorded framing so a remote decoder can trim the reassembled
    payload.
    """

    kind: ClassVar[str] = "stripe"
    name: str = ""
    seq: int = 0
    payload_length: int = 0
    nodes: tuple[int, ...] = ()
    blocks: BlockRun = BlockRun()


@_response(136)
class KeyListResponse(Response):
    kind: ClassVar[str] = "keys"
    keys: tuple[str, ...] = ()


@_response(137)
class AckResponse(Response):
    """Generic acknowledgement with operation-specific detail fields."""

    kind: ClassVar[str] = "ack"
    info: dict = None  # type: ignore[assignment]


@_response(138)
class StatusResponse(Response):
    kind: ClassVar[str] = "status"
    status: dict = None  # type: ignore[assignment]


@_response(128)
class ErrorResponse(Response):
    kind: ClassVar[str] = "error"
    ok: ClassVar[bool] = False
    code: str = "internal"
    error: str = "Error"
    message: str = ""

    @classmethod
    def from_exception(cls, exc: BaseException) -> "ErrorResponse":
        # ProtocolError keeps its historical "BadRequest" error name;
        # everything else reports its class name.
        name = (
            "BadRequest"
            if isinstance(exc, ProtocolError)
            else type(exc).__name__
        )
        message = exc.args[0] if type(exc) is KeyError and exc.args else exc
        return cls(
            code=error_code(exc), error=name, message=str(message)
        )

    def raise_remote(self) -> None:
        """Raise the most faithful client-side exception for this error."""
        raise exception_for(self.code, self.message)


def encode_frame(response: Response, *, request_id: int = 0) -> bytes:
    """One typed reply as a whole frame (envelope, header, payload)."""
    return _encode(response, request_id, 0, b"")


def parse_response(frame: bytes) -> tuple[Response, Envelope]:
    """Parse one whole reply frame into ``(response, envelope)``.

    Error frames parse like any other kind, so clients can surface the
    failure instead of desynchronising; the envelope carries the id a
    link routes by.  A reply sets no flag.
    """
    return _parse(frame, _RESPONSE_TYPES, 0, "response")
