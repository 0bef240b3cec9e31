"""TCP front end for the reconstruction service.

``repro serve`` binds this to a TCP port, framed by
:mod:`repro.serve.protocol` (version 6, binary; unless a ``get`` asks
for the payload no frame here carries raw bytes).  It serves the read
half of the archive-service op family (``docs/SERVE.md`` has the whole
table): ``get`` (``name``, ``want_payload``, ``deadline``) answered
with an ``object`` reply, ``stats``, ``metrics.snapshot`` and ``ping``.

``metrics.snapshot`` returns the service's registry snapshot;
:meth:`~repro.serve.client.ArchiveClient.metrics` renders it in the
Prometheus text exposition format (see :mod:`repro.obs.prom`).

Responses to ``get`` carry the object's size and SHA-256; the payload
itself follows only when the request sets ``want_payload`` — the
simulated archive serves integrity-checkable reconstructions.  Errors
are structured and explicit, mirroring the service's no-silent-drops
contract: an ``error`` reply with the protocol module's stable
``code`` (``overloaded``, ``deadline``, ``not_found``, ...), the
exception's name and its message.

Requests on one connection are handled concurrently (a slow
reconstruction does not block a pipelined ``ping``) with writes
serialized per connection; pipelining clients correlate replies via
the echoed request id.  A request frame carrying a trace context
parents the service's request span under the remote caller's span —
the cross-process half of end-to-end tracing.
"""

from __future__ import annotations

import asyncio
import hashlib

from .lineserver import ArchiveEndpoint, start_line_server
from .protocol import ObjectInfoResponse
from .service import ReconstructionService

__all__ = ["start_frontend"]


class _ServedArchive:
    """A :class:`ReconstructionService` as an archive-service tier.

    Read-only: it has no ``put`` / ``status`` / ``repair``, so the
    endpoint answers those ``unknown_op``.
    """

    def __init__(self, service: ReconstructionService):
        self.stats = service.stats
        self.metrics_snapshot = service.metrics.snapshot
        self._submit = service.try_submit

    async def get(
        self,
        name: str,
        *,
        want_payload: bool = False,
        deadline: float | None = None,
    ) -> ObjectInfoResponse:
        # Submitted under the caller's trace context, so the request
        # span (and the batch/decode tree under it) parents there.
        data = await self._submit(name, deadline=deadline)
        return ObjectInfoResponse(
            name=name,
            size=len(data),
            sha256=hashlib.sha256(data).hexdigest(),
            payload=data if want_payload else None,
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
    endpoint = ArchiveEndpoint(_ServedArchive(service), "frontend")
    return await start_line_server(endpoint, host, port)
