"""Tornado Codes for archival storage — reproduction library.

Reproduction of Woitaszek & Tufo, "Fault Tolerance of Tornado Codes for
Archival Storage" (HPDC 2006).  Subpackages:

* :mod:`repro.core` — Tornado graph construction, peeling/ML decoding,
  critical-set analysis, defect screening, feedback adjustment, codec.
* :mod:`repro.graphs` — comparison graph families and the precompiled
  catalog ("Tornado Graph 1/2/3").
* :mod:`repro.raid` — exact analytic RAID/mirror/striping models.
* :mod:`repro.sim` — Monte Carlo failure profiles and worst-case search.
* :mod:`repro.reliability` — AFR-based system reliability (Table 5).
* :mod:`repro.federation` — multi-site complementary-graph storage.
* :mod:`repro.storage` — simulated devices, archive, MAID, monitoring,
  guided retrieval.
* :mod:`repro.resilience` — fault-injection campaigns, degraded-mode
  read retry policy, composable fault plans.
* :mod:`repro.rs` — Reed-Solomon baseline codec.
* :mod:`repro.serve` — async reconstruction serving: micro-batching,
  plan caching, backpressure, deterministic load generation, the
  versioned wire protocol, and the blocking clients.
* :mod:`repro.cluster` — distributed archive cluster: coordinator /
  storage-node split over the wire protocol, consistent-hash
  placement, cross-node repair, multi-process load driving.
* :mod:`repro.analysis` — tables, ASCII figures, profile caching.
* :mod:`repro.obs` — metrics, causal tracing, telemetry analysis, run
  manifests, unified seeding.

Stable API
----------
The names re-exported here form the supported public surface (see
``docs/API.md``); import them from ``repro`` directly rather than from
deep module paths, which may move between releases::

    import repro

    report = repro.generate_certified(48, seed=0)
    adjusted = repro.adjust_graph(report.graph, target_first_failure=5)
    profile = repro.profile_graph(adjusted.graph, samples_per_k=4000)
"""

from . import (
    analysis,
    cluster,
    core,
    federation,
    graphs,
    obs,
    raid,
    reliability,
    resilience,
    rs,
    serve,
    sim,
    storage,
)
from .cluster import (
    ClusterCoordinator,
    HashRing,
    StorageNode,
    run_cluster_loadgen,
)
from .analysis import ProfileCache, default_cache
from .core import (
    BitsetBatchDecoder,
    CsrGraph,
    ErasureGraph,
    SparseBitsetDecoder,
    TornadoCodec,
    adjust_graph,
    analyze_worst_case,
    generate_certified,
    load_graphml,
    make_batch_decoder,
    resolve_engine,
    save_graphml,
    tornado_csr_graph,
    tornado_graph,
)
from .graphs import tornado_catalog_graph
from .obs import (
    MetricsRegistry,
    RunManifest,
    Tracer,
    capture,
    metrics_enabled,
    render_prometheus,
    resolve_rng,
    trace_capture,
)
from .resilience import FaultPlan, RetryPolicy, run_campaign
from .serve import (
    ArchiveClient,
    ClusterClient,
    LoadGenConfig,
    ReconstructionService,
    ServeConfig,
    run_loadgen,
    seeded_archive,
)
from .sim import (
    FailureProfile,
    measure_retrieval_overhead,
    profile_graph,
    worst_case_search,
)
from .storage import TornadoArchive, run_mission

__version__ = "1.1.0"

__all__ = [
    "ArchiveClient",
    "BitsetBatchDecoder",
    "ClusterClient",
    "ClusterCoordinator",
    "CsrGraph",
    "ErasureGraph",
    "FailureProfile",
    "FaultPlan",
    "HashRing",
    "LoadGenConfig",
    "MetricsRegistry",
    "ProfileCache",
    "ReconstructionService",
    "RetryPolicy",
    "RunManifest",
    "ServeConfig",
    "SparseBitsetDecoder",
    "StorageNode",
    "TornadoArchive",
    "TornadoCodec",
    "Tracer",
    "__version__",
    "adjust_graph",
    "analysis",
    "analyze_worst_case",
    "capture",
    "cluster",
    "core",
    "default_cache",
    "federation",
    "generate_certified",
    "graphs",
    "load_graphml",
    "make_batch_decoder",
    "measure_retrieval_overhead",
    "metrics_enabled",
    "obs",
    "profile_graph",
    "raid",
    "reliability",
    "render_prometheus",
    "resilience",
    "resolve_engine",
    "resolve_rng",
    "rs",
    "run_campaign",
    "run_cluster_loadgen",
    "run_loadgen",
    "run_mission",
    "save_graphml",
    "seeded_archive",
    "serve",
    "sim",
    "storage",
    "tornado_catalog_graph",
    "tornado_csr_graph",
    "tornado_graph",
    "trace_capture",
    "worst_case_search",
]
