"""Serving layer: async archival block reconstruction under load.

The operational endpoint the rest of the stack builds toward — clients
request objects from a Tornado-coded archive, and the service
reconstructs around failures at load, within explicit limits:

* :class:`ReconstructionService` / :class:`ServeConfig` — bounded
  admission queue with visible load shedding, micro-batching, plan
  caching, per-request deadlines, in-place decode through the
  service's :class:`~repro.core.codec.TornadoCodec`, degraded-read
  retry, graceful drain;
* :class:`MicroBatcher` — pure, clock-injected request coalescing;
* :class:`PlanCache` — LRU of peeling schedules keyed by
  (graph hash, erasure mask), defined in :mod:`repro.core.plancache`
  because it is the codec's scheduler;
* :func:`run_loadgen` / :class:`LoadGenConfig` / :class:`LoadReport` —
  deterministic open-loop load generation and latency accounting;
* :func:`seeded_archive` — the shared serving fixture;
* :func:`start_frontend` — line-JSON TCP front end (``repro serve``);
* :mod:`repro.serve.protocol` — the versioned wire protocol (typed
  JSON header line + raw payload bytes, stable error codes) shared by
  the frontend and the cluster (:mod:`repro.cluster`);
  :mod:`repro.serve.link` is its pipelined async client connection;
* :class:`ArchiveClient` / :class:`ClusterClient` — blocking
  stdlib-socket clients: the archive-service ops every tier shares,
  and the cluster's admin and block-plane calls on top.

See ``docs/SERVE.md`` for architecture, tuning, and backpressure
semantics; ``repro loadgen`` and
``benchmarks/bench_x12_serve_throughput.py`` measure it.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "..core.plancache": ("PlanCache", "graph_key"),
        ".batcher": ("Batch", "MicroBatcher"),
        ".client": ("ArchiveClient", "ClusterClient", "ProtocolClient"),
        ".errors": (
            "DeadlineExceededError",
            "ServiceClosedError",
            "ServiceOverloadedError",
        ),
        ".frontend": ("start_frontend",),
        ".lineserver": ("start_line_server",),
        ".loadgen": (
            "LoadGenConfig",
            "LoadReport",
            "arrival_schedule",
            "run_loadgen",
            "seeded_archive",
        ),
        ".protocol": ("PROTOCOL_VERSION", "ProtocolError", "RemoteError"),
        ".service": ("ReconstructionService", "ServeConfig"),
    },
)
