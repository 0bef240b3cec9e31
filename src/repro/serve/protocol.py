"""Versioned wire protocol shared by every network surface.

A frame is one typed JSON **header line**, optionally followed by **raw
payload bytes**.  Before this module the frontend hand-rolled its
frames inline; the cluster (coordinator ↔ storage nodes ↔ clients,
:mod:`repro.cluster`) multiplies the number of speakers, so framing,
typing, versioning, and the error taxonomy live here once:

* **Typed frames** — every operation is a :class:`Request` dataclass
  (``op`` discriminator) and every reply a :class:`Response` dataclass
  (``kind`` discriminator); :func:`parse_request`/:func:`parse_response`
  validate field presence and types and raise :class:`ProtocolError`
  with a stable ``code`` instead of dropping the connection.
* **Binary payloads** — a ``bytes`` field is written in the header as
  its length, a ``dict[str, bytes]`` field as ``{key: length}``, and
  the bytes follow the line back to back, in field order.  The header's
  last key, ``"bin"``, is their total: a reader takes it off the line's
  tail (:func:`payload_size`, no JSON decode) and the payload off the
  stream with one exact read.  The total is checked against
  :data:`MAX_PAYLOAD_BYTES` before anything is read and against what
  the typed fields claim at parse time (short, over-long or unclaimed
  bytes are a :class:`ProtocolError`); a header line is at most
  :data:`MAX_LINE_BYTES`, the stream limit of every speaker.
* **One archive-service op family** — ``put`` / ``get`` / ``status`` /
  ``repair`` / ``metrics.snapshot`` / ``stats`` / ``ping`` / ``metrics``
  mean the same on a frontend, a coordinator, a gateway and a node
  (each serves the ones it implements); only tier-specific ops
  (``cluster.*``, ``block.*``, ``node.admin``) carry a prefix.
* **Versioning** — every frame carries ``"v": 4``.  Anything else (no
  ``v``, an older or a newer one) is refused with
  ``unsupported_version``, carrying the offender's ``id``.
* **Error taxonomy** — :func:`error_code` maps every exception a
  handler can raise onto a small, stable set of ``code`` strings
  (``overloaded``, ``deadline``, ``closed``, ``not_found``,
  ``data_loss``, ``unavailable``, ``node_down``, ``bad_request``,
  ``unknown_op``, ``unsupported_version``, ``internal``); clients
  rebuild typed exceptions from the code via :func:`exception_for`,
  independent of server-side class names.  ``node_down`` marks a
  cluster peer unreachable at the transport level (connection
  refused/reset or RPC deadline expired), distinct from ``unavailable``
  (peer answered, storage backend dark).
* **Trace propagation** — request frames may carry a ``trace`` context
  (``{"trace_id", "span_id"}``, see :mod:`repro.obs.trace`); servers
  parent their spans under it, which is what stitches a cluster-wide
  request → coordinator → node span tree across processes.

The envelope fields (``v``, ``id``, ``trace``) stay out of the typed
dataclasses: :func:`parse_request` returns ``(request, envelope)``.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from typing import Any, Callable, ClassVar, Iterable

from .._checks import check_seconds
from ..storage.archive import DataLossError
from ..storage.device import TransientUnavailableError
from .errors import (
    DeadlineExceededError,
    NodeUnreachableError,
    ServiceClosedError,
    ServiceOverloadedError,
)

__all__ = [
    "MAX_LINE_BYTES",
    "MAX_PAYLOAD_BYTES",
    "PROTOCOL_VERSION",
    "Envelope",
    "ProtocolError",
    "RemoteError",
    "Request",
    "Response",
    "PingRequest",
    "StatsRequest",
    "MetricsRequest",
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
    "MetricsResponse",
    "MetricsSnapshotResponse",
    "ObjectInfoResponse",
    "BlockMapResponse",
    "KeyListResponse",
    "AckResponse",
    "StatusResponse",
    "ErrorResponse",
    "decode_frame",
    "encode_frame",
    "encode_request",
    "error_code",
    "exception_for",
    "parse_request",
    "parse_response",
    "payload_size",
]

PROTOCOL_VERSION = 4

# Longest header line: the asyncio stream limit of the line server and
# of every client connection.  Bounds a ``block.list`` reply (~10^5
# keys), never an object.
MAX_LINE_BYTES = 8 * 2**20
# Most payload bytes a frame may declare; checked before any is read.
MAX_PAYLOAD_BYTES = 256 * 2**20


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
# Framing
# ----------------------------------------------------------------------

_PAYLOAD_KEY = "bin"
_PAYLOAD_MARK = f',"{_PAYLOAD_KEY}":'.encode()
_BUFFERS = (bytes, bytearray, memoryview)
# ``json.dumps`` with separators builds a ``JSONEncoder`` per call.
_encode_header = json.JSONEncoder(separators=(",", ":")).encode


def _nbytes(buffer: Any) -> int:
    return buffer.nbytes if isinstance(buffer, memoryview) else len(buffer)


def _is_length(value: Any) -> bool:
    return (
        isinstance(value, int) and not isinstance(value, bool) and value >= 0
    )


def encode_frame(frame: dict[str, Any]) -> bytes:
    """One frame as wire bytes: JSON header line, then the raw payload.

    Buffer values (``bytes``/``bytearray``/``memoryview``, alone or as
    the values of a dict) are replaced in the header by their lengths
    and appended after the line in the order they appear.
    """
    header: dict[str, Any] = {}
    parts: list[Any] = []
    for name, value in frame.items():
        if isinstance(value, _BUFFERS):
            parts.append(value)
            value = _nbytes(value)
        elif isinstance(value, dict) and isinstance(
            next(iter(value.values()), None), _BUFFERS
        ):
            parts.extend(value.values())
            value = {k: _nbytes(v) for k, v in value.items()}
        header[name] = value
    if parts:
        total = sum(map(_nbytes, parts))
        if total > MAX_PAYLOAD_BYTES:
            raise ProtocolError(
                f"frame payload of {total} bytes is over the "
                f"{MAX_PAYLOAD_BYTES}-byte cap"
            )
        header[_PAYLOAD_KEY] = total
    line = _encode_header(header).encode() + b"\n"
    return b"".join((line, *parts)) if parts else line


def payload_size(line: bytes) -> int:
    """Raw payload bytes that follow header ``line`` on the stream.

    Read off the line's tail, where :func:`encode_frame` writes the
    total as the last key (``,"bin":N}``); a ``"bin"`` anywhere else is
    caught as a mismatch at parse time.  A total over
    :data:`MAX_PAYLOAD_BYTES` raises with the frame's ``id`` recovered
    for the error reply — the reader cannot skip it and must hang up.
    """
    mark = line.rfind(_PAYLOAD_MARK, -32)
    if mark < 0 or not line.endswith(b"}\n"):
        return 0
    digits = line[mark + len(_PAYLOAD_MARK) : -2]
    if not digits.isdigit():
        return 0
    size = int(digits)
    if size > MAX_PAYLOAD_BYTES:
        try:
            request_id = _parse_envelope(decode_frame(line)).id
        except ProtocolError as exc:
            request_id = exc.request_id
        raise ProtocolError(
            f"frame declares {size} payload bytes, over the "
            f"{MAX_PAYLOAD_BYTES}-byte cap",
            request_id=request_id,
        )
    return size


def decode_frame(line: bytes | str) -> dict[str, Any]:
    """Parse one header line into a frame dict or raise :class:`ProtocolError`."""
    try:
        frame = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from None
    if not isinstance(frame, dict):
        raise ProtocolError("invalid JSON: request must be a JSON object")
    return frame


@dataclass(frozen=True)
class Envelope:
    """Per-frame metadata living outside the typed request body."""

    id: Any = None
    trace: dict[str, Any] | None = None


def _parse_envelope(frame: dict[str, Any]) -> Envelope:
    request_id = frame.get("id")
    if request_id is not None and not isinstance(request_id, (str, int)):
        raise ProtocolError("'id' must be a string or integer")
    v = frame.get("v")
    if v is not None and not _is_length(v):
        raise ProtocolError(
            "'v' must be a non-negative integer", request_id=request_id
        )
    if v != PROTOCOL_VERSION:
        raise ProtocolError(
            (
                "frame carries no protocol version"
                if v is None
                else f"protocol version {v} not supported"
            )
            + f' (send "v": {PROTOCOL_VERSION})',
            code="unsupported_version",
            request_id=request_id,
        )
    trace = frame.get("trace")
    if trace is not None:
        if (
            not isinstance(trace, dict)
            or not isinstance(trace.get("trace_id"), str)
            or not isinstance(trace.get("span_id"), str)
        ):
            raise ProtocolError(
                "'trace' must carry string trace_id and span_id",
                request_id=request_id,
            )
    return Envelope(id=request_id, trace=trace)


# ----------------------------------------------------------------------
# Field (de)serialisation shared by requests and responses
# ----------------------------------------------------------------------

# Field annotation -> (JSON type of its wire value, how errors name it).
# ``bytes`` is not here: its wire value is a length into the payload.
_WIRE_TYPES: dict[str, tuple[Any, str]] = {
    "str": (str, "a string"),
    "int": (int, "an integer"),
    "bool": (bool, "a boolean"),
    "float": ((int, float), "a number"),
    "dict": (dict, "an object"),
    "tuple[str, ...]": (list, "a list of strings"),
    "dict[str, bytes]": (dict, "an object of byte lengths"),
}


def _coerce(
    ctx: str, name: str, annotation: str, value: Any, take: Callable
) -> Any:
    """Validate and convert one wire value per its field annotation.

    ``take(name, length)`` hands out the next ``length`` payload bytes.
    """
    base = annotation.removesuffix(" | None")
    if value is None and base != annotation:
        return None
    if base == "bytes":
        return take(name, value)
    wire_type, expected = _WIRE_TYPES[base]
    if (
        not isinstance(value, wire_type)
        or (isinstance(value, bool) and wire_type is not bool)
        or (wire_type is list and not all(isinstance(x, str) for x in value))
    ):
        raise ProtocolError(
            f"{ctx} field {name!r} must be {expected}, "
            f"got {type(value).__name__}"
        )
    if base == "dict[str, bytes]":
        return {k: take(f"{name}[{k!r}]", n) for k, n in value.items()}
    if base == "float":
        return float(value)
    return tuple(value) if wire_type is list else value


def _wire_dataclass(cls):
    """Freeze ``cls`` as a dataclass and cache its field table.

    ``_wire_fields`` holds one ``(name, annotation, required)`` per
    field, computed here once so that no frame pays for
    ``dataclasses.fields()``.
    """
    cls = dataclass(frozen=True)(cls)
    cls._wire_fields = tuple(
        (
            f.name,
            f.type,
            f.default is MISSING and f.default_factory is MISSING,
        )
        for f in fields(cls)
    )
    return cls


def _body_fields(obj: Any) -> Iterable[tuple[str, Any]]:
    for name, _, _ in obj._wire_fields:
        value = getattr(obj, name)
        if value is not None:
            yield name, value


def _from_frame(cls, ctx: str, frame: dict[str, Any], data: bytes):
    declared = frame.get(_PAYLOAD_KEY, 0)
    if not _is_length(declared) or declared != len(data):
        raise ProtocolError(
            f"{ctx} declares {declared!r} payload bytes, {len(data)} "
            f"followed its header (the total is a non-negative integer, "
            f'written last: ,"{_PAYLOAD_KEY}":N}})'
        )
    offset = 0

    def take(name: str, length: Any) -> bytes:
        nonlocal offset
        if not _is_length(length) or offset + length > len(data):
            raise ProtocolError(
                f"{ctx} field {name!r} must be a byte length within the "
                f"{len(data) - offset} payload bytes left, got {length!r}"
            )
        offset += length
        return data[offset - length : offset]

    kwargs: dict[str, Any] = {}
    for name, annotation, required in cls._wire_fields:
        if name not in frame:
            if required:
                raise ProtocolError(f"{ctx} requires field {name!r}")
            continue
        kwargs[name] = _coerce(ctx, name, annotation, frame[name], take)
    if offset != len(data):
        raise ProtocolError(
            f"{ctx} payload has {len(data) - offset} bytes no field claims"
        )
    return cls(**kwargs)


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

    def to_frame(
        self,
        *,
        request_id: Any = None,
        trace: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """The frame as a dict; buffer fields stay buffers until
        :func:`encode_frame` moves them behind the header line."""
        frame: dict[str, Any] = {"v": PROTOCOL_VERSION, "op": self.op}
        if request_id is not None:
            frame["id"] = request_id
        if trace is not None:
            frame["trace"] = dict(trace)
        frame.update(_body_fields(self))
        return frame


_REQUEST_TYPES: dict[str, type[Request]] = {}


def _request(cls: type[Request]) -> type[Request]:
    """Make ``cls`` a frozen dataclass and register it under its ``op``."""
    cls = _wire_dataclass(cls)
    _REQUEST_TYPES[cls.op] = cls
    return cls


@_request
class PingRequest(Request):
    op: ClassVar[str] = "ping"


@_request
class StatsRequest(Request):
    op: ClassVar[str] = "stats"


@_request
class MetricsRequest(Request):
    op: ClassVar[str] = "metrics"


@_request
class MetricsSnapshotRequest(Request):
    """Raw registry snapshot of the answering process (scrape plane).

    ``metrics`` answers with the same snapshot rendered as Prometheus
    text; this returns it structured, so a fleet scraper can merge
    counters/histograms across processes.
    """

    op: ClassVar[str] = "metrics.snapshot"


@_request
class PutRequest(Request):
    """Store an object (a coordinator stripes it; a gateway replicates
    it to every site by forwarding this same request)."""

    op: ClassVar[str] = "put"
    name: str = ""
    payload: bytes = b""

    _required = ("name",)


@_request
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


@_request
class StatusRequest(Request):
    """The tier's view of itself and its members (nodes or sites)."""

    op: ClassVar[str] = "status"


@_request
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


@_request
class BlockPutRequest(Request):
    """Bulk block write: one RPC stores the whole batch, or none of it
    when the node's data plane is dark."""

    op: ClassVar[str] = "block.put"
    blocks: dict[str, bytes]


@_request
class BlockFetchRequest(Request):
    """Bulk block read: one RPC returns every held key of the batch."""

    op: ClassVar[str] = "block.fetch"
    keys: tuple[str, ...] = ()


@_request
class BlockDeleteRequest(Request):
    """Bulk block delete; the ack counts the keys that were held."""

    op: ClassVar[str] = "block.delete"
    keys: tuple[str, ...] = ()


@_request
class BlockListRequest(Request):
    op: ClassVar[str] = "block.list"
    prefix: str = ""


@_request
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
        "interrupt",
        "restore",
        "step",
        "partition",
        "heal",
        "slow",
    )

    def __post_init__(self) -> None:
        if self.action not in self._ACTIONS:
            raise ProtocolError(
                f"'node.admin' action must be one of {self._ACTIONS}"
            )
        check_seconds(
            self.delay_seconds, "'node.admin' delay_seconds", zero=True
        )


@_request
class ClusterRepairStatusRequest(Request):
    """Inspect the repair scheduler: queue, budget, lifetime totals."""

    op: ClassVar[str] = "cluster.repair_status"


@_request
class ClusterSnapshotRequest(Request):
    """Compact the coordinator WAL into a fresh snapshot."""

    op: ClassVar[str] = "cluster.snapshot"


@_request
class ClusterJoinRequest(Request):
    op: ClassVar[str] = "cluster.join"
    node_id: str = ""
    host: str = ""
    port: int = 0

    def __post_init__(self) -> None:
        if not self.node_id or not self.host or not self.port:
            raise ProtocolError(
                "'cluster.join' needs node_id, host and port"
            )


@_request
class ClusterLeaveRequest(Request):
    op: ClassVar[str] = "cluster.leave"
    node_id: str = ""

    _required = ("node_id",)


@_request
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


def parse_request(
    line: bytes | str, payload: bytes = b""
) -> tuple[Request, Envelope]:
    """Parse a header line and its payload into ``(request, envelope)``.

    Raises :class:`ProtocolError` — carrying whatever ``id`` could be
    recovered — for invalid JSON, bad envelopes, unknown ops, missing,
    mistyped or out-of-range fields, and payload bytes no field claims.
    """
    frame = decode_frame(line)
    envelope = _parse_envelope(frame)
    op = frame.get("op")
    cls = _REQUEST_TYPES.get(op) if isinstance(op, str) else None
    if cls is None:
        raise ProtocolError(
            f"unknown op {op!r}", code="unknown_op", request_id=envelope.id
        )
    try:
        request = _from_frame(cls, f"{op!r}", frame, payload)
    except ValueError as exc:  # a ProtocolError, or a field's own check
        code = getattr(exc, "code", "bad_request")
        raise ProtocolError(
            str(exc), code=code, request_id=envelope.id
        ) from None
    return request, envelope


def encode_request(
    request: Request,
    *,
    request_id: Any = None,
    trace: dict[str, Any] | None = None,
) -> bytes:
    """Client-side encoding of one typed request (header + payload)."""
    return encode_frame(
        request.to_frame(request_id=request_id, trace=trace)
    )


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Response:
    """Base class: one typed reply, discriminated by ``kind``."""

    kind: ClassVar[str]
    ok: ClassVar[bool] = True

    def to_frame(self, *, request_id: Any = None) -> dict[str, Any]:
        frame: dict[str, Any] = {
            "v": PROTOCOL_VERSION,
            "ok": self.ok,
            "kind": self.kind,
        }
        if request_id is not None:
            frame["id"] = request_id
        frame.update(_body_fields(self))
        return frame


_RESPONSE_TYPES: dict[str, type[Response]] = {}


def _response(cls: type[Response]) -> type[Response]:
    """Make ``cls`` a frozen dataclass and register it under its ``kind``."""
    cls = _wire_dataclass(cls)
    _RESPONSE_TYPES[cls.kind] = cls
    return cls


@_response
class PongResponse(Response):
    kind: ClassVar[str] = "pong"
    pong: bool = True


@_response
class StatsResponse(Response):
    kind: ClassVar[str] = "stats"
    stats: dict = None  # type: ignore[assignment]


@_response
class MetricsResponse(Response):
    kind: ClassVar[str] = "metrics"
    metrics: str = ""


@_response
class MetricsSnapshotResponse(Response):
    """One process's registry snapshot, labelled for fleet merging."""

    kind: ClassVar[str] = "metrics_snapshot"
    role: str = ""
    source: str = ""
    snapshot: dict = None  # type: ignore[assignment]


@_response
class ObjectInfoResponse(Response):
    """A reconstructed object: size + digest, payload only on request."""

    kind: ClassVar[str] = "object"
    name: str = ""
    size: int = 0
    sha256: str = ""
    payload: bytes | None = None


@_response
class BlockMapResponse(Response):
    kind: ClassVar[str] = "blocks"
    blocks: dict[str, bytes] = None  # type: ignore[assignment]
    missing: tuple[str, ...] = ()


@_response
class StripeBlocksResponse(Response):
    """One stripe's surviving raw blocks, keyed by graph-node index.

    Keys are decimal strings (wire dicts key on strings); values are
    the raw block bytes.  ``payload_length`` is the stripe's recorded
    framing so a remote decoder can trim the reassembled payload.
    """

    kind: ClassVar[str] = "stripe"
    name: str = ""
    seq: int = 0
    payload_length: int = 0
    blocks: dict[str, bytes] = None  # type: ignore[assignment]


@_response
class KeyListResponse(Response):
    kind: ClassVar[str] = "keys"
    keys: tuple[str, ...] = ()


@_response
class AckResponse(Response):
    """Generic acknowledgement with operation-specific detail fields."""

    kind: ClassVar[str] = "ack"
    info: dict = None  # type: ignore[assignment]


@_response
class StatusResponse(Response):
    kind: ClassVar[str] = "status"
    status: dict = None  # type: ignore[assignment]


@_response
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


def parse_response(
    line: bytes | str,
    payload: bytes = b"",
    frame: dict[str, Any] | None = None,
) -> tuple[Response, dict[str, Any]]:
    """Parse a reply's header line and payload into ``(response, frame)``.

    The raw header frame rides along for envelope extras (``id``,
    shipped ``spans``).  Error frames always parse, so clients can
    surface the failure instead of desynchronising.  A caller that has
    decoded ``line`` already (a link routing replies by ``id``) passes
    the result as ``frame`` and the line is not decoded again.
    """
    if frame is None:
        frame = decode_frame(line)
    if not frame.get("ok", False):
        return (
            ErrorResponse(
                code=frame.get("code", "internal"),
                error=frame.get("error", "Error"),
                message=frame.get("message", ""),
            ),
            frame,
        )
    kind = frame.get("kind")
    cls = _RESPONSE_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ProtocolError(f"response has unknown kind {kind!r}")
    return _from_frame(cls, f"{kind!r} response", frame, payload), frame
