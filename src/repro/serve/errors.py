"""Error taxonomy of the block-reconstruction service.

Every failure a client can see is an explicit exception — the service
never drops a request silently.  The three classes map onto the three
operational responses:

* :class:`ServiceOverloadedError` — admission control shed the request
  because the bounded queue is full; the client should back off and
  retry (load shedding is *visible*, counted in ``serve.shed``).
* :class:`DeadlineExceededError` — the request's deadline passed before
  its batch completed; a :class:`TimeoutError` subtype so generic
  timeout handling applies.
* :class:`ServiceClosedError` — the service is draining or closed and
  accepts no new work.
* :class:`NodeUnreachableError` — a cluster peer could not be reached
  at the transport level (connection refused, reset, or deadline
  expired): distinct from ``unavailable``, which means the peer
  answered but its storage backend is dark.  The cluster coordinator's
  :class:`~repro.cluster.coordinator.NodeDownError` subclasses it, and
  the wire code is ``node_down``.

Data-path failures (:class:`repro.storage.DataLossError`,
:class:`repro.storage.TransientUnavailableError`) propagate unchanged:
they describe the archive, not the service.
"""

from __future__ import annotations

__all__ = [
    "DeadlineExceededError",
    "NodeUnreachableError",
    "ServiceClosedError",
    "ServiceOverloadedError",
]


class ServiceOverloadedError(RuntimeError):
    """Admission control rejected the request (queue at capacity)."""

    def __init__(self, message: str, queue_depth: int = 0):
        self.queue_depth = queue_depth
        super().__init__(message)


class DeadlineExceededError(TimeoutError):
    """The request's deadline expired before reconstruction finished."""


class ServiceClosedError(RuntimeError):
    """The service is draining or closed; no new requests accepted."""


class NodeUnreachableError(ConnectionError):
    """A cluster peer is unreachable at the transport level.

    Raised after transport retries are exhausted: the peer refused or
    reset the connection, or never answered within the RPC deadline.
    The blocks it holds may be perfectly intact — the caller decides
    whether to decode around the peer or declare it lost.
    """
