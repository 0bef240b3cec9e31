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

``import repro`` is lazy: each name (and each subpackage) is imported
the first time it is read, so a process loads only what it touches.
"""

from ._exports import lazy_exports

__version__ = "1.1.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".analysis": ("ProfileCache", "default_cache"),
        ".cluster": (
            "ClusterCoordinator",
            "HashRing",
            "StorageNode",
            "run_cluster_loadgen",
        ),
        ".core": (
            "BitsetBatchDecoder",
            "CsrGraph",
            "ErasureGraph",
            "SparseBitsetDecoder",
            "TornadoCodec",
            "adjust_graph",
            "analyze_worst_case",
            "generate_certified",
            "load_graphml",
            "make_batch_decoder",
            "resolve_engine",
            "save_graphml",
            "tornado_csr_graph",
            "tornado_graph",
        ),
        ".graphs": ("tornado_catalog_graph",),
        ".obs": (
            "MetricsRegistry",
            "RunManifest",
            "Tracer",
            "capture",
            "metrics_enabled",
            "render_prometheus",
            "resolve_rng",
            "trace_capture",
        ),
        ".resilience": ("FaultPlan", "RetryPolicy", "run_campaign"),
        ".serve": (
            "ArchiveClient",
            "ClusterClient",
            "LoadGenConfig",
            "ReconstructionService",
            "ServeConfig",
            "run_loadgen",
            "seeded_archive",
        ),
        ".sim": (
            "FailureProfile",
            "measure_retrieval_overhead",
            "profile_graph",
            "worst_case_search",
        ),
        ".storage": ("TornadoArchive", "run_mission"),
    },
    subpackages=(
        "analysis",
        "cluster",
        "core",
        "federation",
        "graphs",
        "obs",
        "raid",
        "reliability",
        "resilience",
        "rs",
        "serve",
        "sim",
        "storage",
    ),
)
__all__.append("__version__")
