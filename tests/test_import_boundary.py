"""The import boundary: ``import repro`` is lazy, and each package names
its exports once.

Every case runs in a fresh interpreter, so what it sees loaded is what
the imports under test loaded and nothing a previous test left behind.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]


def run(code: str, *paths: Path) -> str:
    """Run ``code`` in a fresh interpreter and return its standard output."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (SRC, *paths)))}
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def loaded_after(imports: str, prefixes: tuple[str, ...]) -> list[str]:
    """Modules under ``prefixes`` that ``imports`` left in ``sys.modules``."""
    modules = run(f"import sys\n{imports}\nprint(*sorted(sys.modules))").split()
    return [
        name for name in modules
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    ]


def test_import_repro_loads_no_subsystem():
    assert loaded_after("import repro", (
        "networkx",
        "asyncio",
        "repro.cluster",
        "repro.resilience.campaign",
        "repro.sites",
        "repro.analysis",
    )) == []


def test_sweep_and_cluster_imports_skip_campaigns_and_graphml():
    assert loaded_after(
        "import repro.sim.montecarlo, repro.cluster.coordinator, "
        "repro.serve.client, repro.core.sparse",
        (
            "networkx",
            "repro.resilience.campaign",
            "repro.resilience.cluster_campaign",
            "repro.cluster.fleet",
            "repro.sites",
            "repro.reliability.lifetime",
        ),
    ) == []


def test_parser_loads_no_fleet_service_or_campaign():
    """``build_parser()`` runs for ``--help``, every verb and every
    daemon a fleet spawns; the scenario verbs' options come from
    ``repro.scenarios``, which loads none of their drivers."""
    assert loaded_after(
        "from repro.cli import build_parser\nbuild_parser()",
        ("repro.cluster", "repro.sites", "repro.serve", "repro.resilience"),
    ) == []


def test_argument_contract_loads_no_other_module():
    """``repro._checks`` sits below every package: past the package's
    own lazy table it imports nothing of ``repro``."""
    assert loaded_after("import repro._checks", ("repro",)) == [
        "repro", "repro._checks", "repro._exports",
    ]


def test_coordinator_loads_no_read_service():
    """The headroom probe's helper lives beside ``make_batch_decoder``:
    the coordinator loads neither the service, its batcher nor the run
    manifest (39 ``repro`` modules, not 42)."""
    assert loaded_after("import repro.cluster.coordinator", (
        "repro.serve.service",
        "repro.serve.batcher",
        "repro.obs.manifest",
    )) == []


# Each package's ``__all__`` as it was when every ``__init__`` imported
# its submodules eagerly; the export tables must name the same set.
EXPORTS = {
    "repro": {
        "ArchiveClient", "BitsetBatchDecoder", "ClusterClient", "ClusterCoordinator",
        "CsrGraph", "ErasureGraph", "FailureProfile", "FaultPlan", "HashRing",
        "LoadGenConfig", "MetricsRegistry", "ProfileCache", "ReconstructionService",
        "RetryPolicy", "RunManifest", "ServeConfig", "SparseBitsetDecoder",
        "StorageNode", "TornadoArchive", "TornadoCodec", "Tracer", "__version__",
        "adjust_graph", "analysis", "analyze_worst_case", "capture", "cluster", "core",
        "default_cache", "federation", "generate_certified", "graphs", "load_graphml",
        "make_batch_decoder", "measure_retrieval_overhead", "metrics_enabled", "obs",
        "profile_graph", "raid", "reliability", "render_prometheus", "resilience",
        "resolve_engine", "resolve_rng", "rs", "run_campaign", "run_cluster_loadgen",
        "run_loadgen", "run_mission", "save_graphml", "seeded_archive", "serve", "sim",
        "storage", "tornado_catalog_graph", "tornado_csr_graph", "tornado_graph",
        "trace_capture", "worst_case_search",
    },
    "repro.analysis": {
        "GraphStats", "LevelStats", "ProfileCache", "ascii_curves", "default_cache",
        "format_table", "graph_stats", "markdown_table", "profile_summary_table",
        "save_svg", "svg_curves", "svg_failure_graph",
    },
    "repro.cluster": {
        "ClusterCoordinator", "ClusterLoadConfig", "ClusterLoadReport",
        "ClusterManifest", "CoordinatorWal", "HashRing", "RepairScheduler",
        "StorageNode", "WalCorruptError", "WalUnwritableError", "run_cluster_loadgen",
        "start_coordinator", "start_storage_node",
    },
    "repro.core": {
        "AdjustmentResult", "AdjustmentStep", "BitsetBatchDecoder", "CascadePlan",
        "Constraint", "CriticalReport", "CsrGraph", "DECODE_ENGINES", "DecodeFailure",
        "DecodeResult", "Defect", "DensityReport", "EdgeDistribution", "EncodedStripe",
        "BlockRun", "ErasureGraph", "GenerationError", "GenerationReport", "GraphValidationError",
        "MLDecodeReport", "MLDecoder", "MultiEdgeRepairError", "PeelingDecoder",
        "PlanCache", "SparseBitsetDecoder", "TornadoCodec", "adjust_graph",
        "allocate_node_degrees", "analyze_worst_case", "cascade_graph_from_degrees",
        "count_failing_sets", "density_report", "doubled", "edge_polynomial",
        "exhaustive_failing_sets", "failing_set_counts", "find_defects",
        "first_failure", "from_networkx", "generate_certified", "graph_key",
        "has_defects", "heavy_tail_distribution", "is_stopping_set", "load_graphml",
        "make_batch_decoder", "match_edge_total", "min_bad_stopping_set_containing",
        "minimal_bad_stopping_sets", "pack_cases", "packed_random_loss_masks",
        "packed_sparse_loss_masks", "plan_cascade", "poisson_distribution",
        "random_bipartite_edges", "realized_level_distributions", "recovery_threshold",
        "render_failure", "resolve_engine", "rewire", "save_graphml",
        "shared_right_set_pairs", "shifted", "solve_poisson_alpha", "stripe_rows",
        "to_networkx", "tornado_csr_graph", "tornado_graph", "unpack_cases",
    },
    "repro.federation": {
        "FederatedSystem", "PairingScore", "SelectionReport", "federated_first_failure",
        "federated_profile", "select_complementary_pair",
    },
    "repro.graphs": {
        "LECCandidate", "NUM_DATA_96", "TORNADO_SEEDS", "altered_tornado_doubled",
        "altered_tornado_shifted", "cascade_graph_from_degrees",
        "catalog_96_node_systems", "lec_like_graph", "mirrored_graph", "regular_graph",
        "replicated_graph", "striped_graph", "tornado_catalog_graph",
    },
    "repro.obs": {
        "BUCKET_GAMMA", "BurnWindow", "Counter", "DEFAULT_OBJECTIVES", "FleetScraper",
        "Gauge", "Histogram", "JsonlSink", "LogicalClock", "MetricsRegistry",
        "NullRegistry", "Objective", "RunManifest", "ScrapeTarget", "SeedLike",
        "SloEngine", "Span", "SpanNode", "TimeSeriesStore", "Tracer", "add_trace_event",
        "bucket_midpoint", "bucket_upper_bound", "build_trace_trees", "capture",
        "context_seed", "current_context", "current_span", "derive_seed", "disable",
        "disable_tracing", "enable", "enable_tracing", "format_phase_report",
        "format_tail", "load_events", "load_timeline", "metrics_enabled", "phase_stats",
        "read_jsonl", "registry", "render_prometheus", "render_top",
        "render_trace_tree", "resolve_rng", "span_records", "spawn_seeds", "start_span",
        "subtract_summary", "summary_quantile", "trace_capture", "trace_span", "tracer",
        "tracing_enabled", "use_context",
    },
    "repro.raid": {
        "AnalyticSystem", "grouped_mds_fail_given_k", "mirrored_fail_given_k",
        "mirrored_system", "raid5_system", "raid6_system", "striped_fail_given_k",
        "striped_system",
    },
    "repro.reliability": {
        "BathtubHazard", "DEFAULT_AFR", "FleetHazards", "LifetimeConfig",
        "LifetimeResult", "ReliabilityEntry", "WeibullHazard", "afr_sweep",
        "binomial_loss_pmf", "calibrated_scale", "failure_predicate_for_graph",
        "failure_predicate_for_groups", "failure_rate_from_afr", "mttdl",
        "reliability_table", "simulate_lifetime",
        "step_failure_probability", "system_failure_probability",
    },
    "repro.resilience": {
        "CampaignConfig", "CampaignReport", "ClusterCampaignConfig",
        "ClusterCampaignReport", "CoordinatorCrashes", "DrawerOutages", "FaultInjector",
        "FaultPlan", "LatentErrors", "NetworkPartitions", "NodeCrashes",
        "ReplacementJitter", "RetryPolicy", "SilentCorruption", "SlowNodes",
        "TransientOutages", "default_cluster_plan", "run_campaign",
        "run_cluster_campaign",
    },
    "repro.rs": {
        "RSDecodeError", "ReedSolomonCodec", "cauchy_matrix", "gf_div", "gf_inv",
        "gf_mul", "gf_pow", "invert_matrix", "matmul",
    },
    "repro.serve": {
        "ArchiveClient", "Batch", "ClusterClient", "DeadlineExceededError",
        "LoadGenConfig", "LoadReport", "MicroBatcher", "PROTOCOL_VERSION", "PlanCache",
        "ProtocolClient", "ProtocolError", "ReconstructionService", "RemoteError",
        "ServeConfig", "ServiceClosedError", "ServiceOverloadedError",
        "arrival_schedule", "graph_key", "run_loadgen", "seeded_archive",
        "start_frontend", "start_line_server",
    },
    "repro.sim": {
        "DEFAULT_EXACT_UPTO", "DEFAULT_SAMPLES_PER_K", "FailureProfile",
        "IncrementalPeeler", "OverheadResult", "WorstCaseResult",
        "measure_retrieval_overhead", "profile_graph", "sample_fail_fraction",
        "verify_exhaustive", "worst_case_search",
    },
    "repro.sites": {
        "FederationGateway", "FederationManifest", "PairingRecord", "SiteAssignment",
        "SiteDownError", "SiteLink", "SitesCampaignConfig", "SitesCampaignReport",
        "SitesLoadConfig", "SitesLoadReport", "WanCostModel", "WanReadEstimate",
        "assign_site_graphs", "estimate_wan_read_cost", "find_coupled_witness",
        "run_sites_campaign", "run_sites_loadgen", "start_gateway",
    },
    "repro.storage": {
        "CorruptBlock", "DataLossError", "Device", "DeviceArray", "DeviceBlockStore",
        "DeviceState", "IntegrityReport", "IntegrityScanner", "LocalBlockStore",
        "MAIDPowerModel", "MissionConfig", "MissionEvent", "MissionReport",
        "MonitorReport", "ObjectManifest", "PowerReport", "RetrievalPlan",
        "SessionMeter", "StripeHealth", "StripeMap", "StripeMonitor", "StripeRecord",
        "TornadoArchive", "TransientUnavailableError", "block_key", "corrupt_block",
        "parse_block_key", "plan_all", "plan_data_first", "plan_guided",
        "rotated_placement", "run_mission",
    },
}


def test_export_tables_keep_every_name():
    out = run("""
        import importlib, json
        packages = %r
        seen = {}
        for name in packages:
            package = importlib.import_module(name)
            exported = list(package.__all__)
            assert len(exported) == len(set(exported)), name
            for attr in exported:
                getattr(package, attr)
            assert set(exported) <= set(dir(package)), name
            seen[name] = sorted(exported)
        namespace = {}
        exec("from repro import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(seen["repro"])
        print(json.dumps(seen))
    """ % sorted(EXPORTS))
    assert {name: set(names) for name, names in json.loads(out).items()} == EXPORTS


def test_submodules_resolve_and_unknown_names_raise():
    run("""
        import repro
        assert repro.core.decoder.make_batch_decoder is repro.make_batch_decoder
        try:
            repro.core.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise SystemExit("no AttributeError")
    """)


@pytest.mark.parametrize("first", ["name", "submodule"])
def test_obs_registry_is_the_function_in_either_order(first):
    run(f"""
        import importlib
        if {first!r} == "name":
            from repro.obs import registry
            module = importlib.import_module("repro.obs.registry")
        else:
            module = importlib.import_module("repro.obs.registry")
            from repro.obs import registry
        import repro.obs
        assert callable(registry) and registry is module.registry
        assert repro.obs.registry is registry
        assert isinstance(repro.obs.registry(), module.NullRegistry)
    """)


def write_package(root: Path, name: str, init: str) -> None:
    package = root / name
    package.mkdir()
    (package / "__init__.py").write_text(textwrap.dedent(init))
    (package / "thing.py").write_text("def thing():\n    return 'thing'\n")
    (package / "other.py").write_text("def helper():\n    return 'helper'\n")


def test_export_colliding_with_a_submodule_raises(tmp_path):
    write_package(tmp_path, "clash", """
        from repro._exports import lazy_exports

        __all__, __getattr__, __dir__ = lazy_exports(
            __name__, {".thing": ("thing",), ".other": ("helper",)}
        )
    """)
    out = run("""
        try:
            import clash
        except ImportError as exc:
            print(exc)
    """, tmp_path)
    assert "clash exports ['thing']" in out


def test_eager_binding_resolves_a_collision(tmp_path):
    write_package(tmp_path, "eager", """
        from repro._exports import lazy_exports
        from .thing import thing

        __all__, __getattr__, __dir__ = lazy_exports(
            __name__, {".thing": ("thing",), ".other": ("helper",)}
        )
    """)
    out = run("""
        import sys
        import eager
        assert "eager.other" not in sys.modules
        assert eager.thing() == "thing"
        assert eager.helper() == "helper" and "eager.other" in sys.modules
        print(sorted(eager.__all__))
    """, tmp_path)
    assert out.split() == ["['helper',", "'thing']"]
