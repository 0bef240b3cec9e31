"""Observability for the simulation stack (``repro.obs``).

Dependency-free instrumentation layer threaded through the library's
hot paths — batch decoding, Monte Carlo profiling, worst-case search,
storage devices, the profile cache, and the serving stack:

* :class:`MetricsRegistry` — counters, gauges, quantile histograms
  (log-spaced buckets, p50/p90/p99 in every summary, lossless
  bucket-wise merges), the ``timer()`` context manager,
  structured events;
* :class:`Tracer` / :mod:`repro.obs.trace` — causal tracing with
  deterministic trace/span IDs, contextvar-scoped current span, and
  cross-process context propagation (request → batch → pool worker);
* :class:`JsonlSink` — line-oriented, thread-safe event log for live
  tailing;
* :mod:`repro.obs.analyze` — trace trees, per-phase latency reports,
  event tails (backs the ``repro obs`` CLI family);
* :func:`render_prometheus` — Prometheus text exposition of any
  registry snapshot;
* :class:`RunManifest` — provenance (seed, config, version, host, wall
  time) for every run, stored beside cached profiles and emitted per
  service lifecycle;
* :mod:`repro.obs.seeding` — the unified ``seed: int | Generator``
  convention shared by every public simulation entry point;
* :class:`FleetScraper` / :class:`TimeSeriesStore` / :class:`SloEngine`
  — the fleet telemetry pipeline: scrape every cluster/sites process
  over the wire protocol, keep the run's windowed history (rates,
  gauge ranges, mergeable quantiles), and run multi-window burn-rate
  alerting with error budgets and a durability health score (backs
  ``repro obs top`` and ``repro obs slo report|check``).

Collection is off by default and costs nearly nothing when off (see
:mod:`repro.obs.registry`).  Enable per run via ``repro ...
--metrics out.jsonl --trace trace.jsonl``, the ``REPRO_METRICS`` /
``REPRO_TRACE`` environment variables, or programmatically::

    from repro.obs import capture

    with capture() as metrics:
        profile_graph(graph, samples_per_k=1000)
    print(metrics.snapshot()["counters"])

See ``docs/OBS.md`` for the event schema, trace model, and CLI tour.
"""

from .._exports import lazy_exports

# ``registry`` names both a submodule and the function it exports.  Bound
# here, after the submodule loads, ``repro.obs.registry`` is the function
# whichever of the two a caller touches first.
from .registry import registry  # noqa: F401  (the export table's ``registry``)

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".analyze": (
            "SpanNode",
            "build_trace_trees",
            "format_phase_report",
            "format_tail",
            "load_events",
            "phase_stats",
            "render_trace_tree",
            "span_records",
        ),
        ".manifest": ("RunManifest",),
        ".prom": ("render_prometheus",),
        ".registry": (
            "BUCKET_GAMMA",
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "NullRegistry",
            "bucket_midpoint",
            "bucket_upper_bound",
            "capture",
            "disable",
            "enable",
            "metrics_enabled",
            "registry",
        ),
        ".scrape": ("FleetScraper", "LogicalClock", "ScrapeTarget"),
        ".seeding": ("SeedLike", "derive_seed", "resolve_rng", "spawn_seeds"),
        ".sink": ("JsonlSink", "read_jsonl"),
        ".slo": ("DEFAULT_OBJECTIVES", "BurnWindow", "Objective", "SloEngine"),
        ".timeseries": (
            "TimeSeriesStore",
            "load_timeline",
            "subtract_summary",
            "summary_quantile",
        ),
        ".top": ("render_top",),
        ".trace": (
            "Span",
            "Tracer",
            "add_trace_event",
            "context_seed",
            "current_context",
            "current_span",
            "disable_tracing",
            "enable_tracing",
            "start_span",
            "trace_capture",
            "trace_span",
            "tracer",
            "tracing_enabled",
            "use_context",
        ),
    },
)
