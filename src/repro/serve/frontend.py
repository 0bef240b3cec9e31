"""Line-oriented JSON front end for the reconstruction service.

``repro serve`` binds this to a TCP port: one JSON object per line in,
one per line out, framed by :mod:`repro.serve.protocol` (version 2;
none of this endpoint's frames carries a raw payload, so a frame is
exactly its header line).  Operations::

    {"v": 2, "op": "get", "name": "object-000"}
        -> {"v": 2, "ok": true, "kind": "object", "size": N,
            "sha256": "..."}
    {"v": 2, "op": "get", "name": "...", "deadline": 0.5}
    {"v": 2, "op": "stats"}    -> {..., "stats": {...}}
    {"v": 2, "op": "metrics"}  -> {..., "metrics": "..."}
    {"v": 2, "op": "ping"}     -> {..., "pong": true}

``metrics`` returns the service's registry snapshot rendered in the
Prometheus text exposition format (see :mod:`repro.obs.prom`), so a
scraper can poll the same port clients use.

Responses to ``get`` carry the object's size and SHA-256 rather than
the payload itself — the simulated archive serves integrity-checkable
reconstructions, not bulk bytes, and keeping responses one short line
makes the protocol trivially scriptable.  Errors are structured and
explicit, mirroring the service's no-silent-drops contract, with the
protocol module's stable ``code`` taxonomy::

    {"v": 2, "ok": false, "kind": "error", "code": "overloaded",
     "error": "ServiceOverloadedError", "message": "..."}

Requests on one connection are handled concurrently (a slow
reconstruction does not block a pipelined ``ping``) with writes
serialized per connection; pipelining clients correlate replies via
the echoed ``id`` field.  A request frame carrying a ``trace`` context
parents the service's request span under the remote caller's span —
the cross-process half of end-to-end tracing.
"""

from __future__ import annotations

import asyncio
import hashlib

from ..obs.prom import render_prometheus
from ..obs.trace import use_context
from .lineserver import start_line_server
from .protocol import (
    Envelope,
    GetRequest,
    MetricsRequest,
    MetricsResponse,
    ObjectInfoResponse,
    PingRequest,
    PongResponse,
    ProtocolError,
    Request,
    Response,
    StatsRequest,
    StatsResponse,
)
from .service import ReconstructionService

__all__ = ["start_frontend"]


async def handle_request(
    service: ReconstructionService, request: Request, envelope: Envelope
) -> Response:
    """Dispatch one typed frontend request against the service."""
    if isinstance(request, PingRequest):
        return PongResponse()
    if isinstance(request, StatsRequest):
        return StatsResponse(stats=service.stats())
    if isinstance(request, MetricsRequest):
        return MetricsResponse(
            metrics=render_prometheus(service.metrics.snapshot())
        )
    if isinstance(request, GetRequest):
        # A remote trace context makes the request span (and the whole
        # batch/decode tree under it) a child of the caller's span.
        with use_context(envelope.trace):
            future = service.try_submit(
                request.name, deadline=request.deadline
            )
        data = await future
        return ObjectInfoResponse(
            name=request.name,
            size=len(data),
            sha256=hashlib.sha256(data).hexdigest(),
        )
    raise ProtocolError(
        f"op {request.op!r} is not served by this endpoint",
        code="unknown_op",
    )


async def start_frontend(
    service: ReconstructionService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> asyncio.base_events.Server:
    """Start the TCP front end; ``port=0`` binds an ephemeral port.

    The caller owns both life cycles: close the returned server, then
    drain/close the service.
    """

    async def handler(request: Request, envelope: Envelope) -> Response:
        return await handle_request(service, request, envelope)

    return await start_line_server(handler, host, port)
