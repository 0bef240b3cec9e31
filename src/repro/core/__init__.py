"""Core Tornado Code machinery: graphs, decoding, analysis, adjustment.

This subpackage implements the paper's primary contribution — the
construction, certification, and fault-tolerance analysis of small
Tornado Code graphs — plus the data codec that turns a certified graph
into an actual erasure code.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".adjust": ("AdjustmentResult", "AdjustmentStep", "adjust_graph", "rewire"),
        ".bipartite": ("MultiEdgeRepairError", "random_bipartite_edges"),
        ".bitdecoder": (
            "BitsetBatchDecoder",
            "pack_cases",
            "packed_random_loss_masks",
            "unpack_cases",
        ),
        ".cascade": (
            "CascadePlan",
            "cascade_graph_from_degrees",
            "plan_cascade",
            "tornado_graph",
        ),
        ".codec": (
            "BlockRun", "DecodeFailure", "EncodedStripe", "TornadoCodec", "stripe_rows"
        ),
        ".critical": (
            "CriticalReport",
            "analyze_worst_case",
            "count_failing_sets",
            "exhaustive_failing_sets",
            "failing_set_counts",
            "first_failure",
            "is_stopping_set",
            "min_bad_stopping_set_containing",
            "minimal_bad_stopping_sets",
        ),
        ".csrgraph": ("CsrGraph", "tornado_csr_graph"),
        ".decoder": (
            "DECODE_ENGINES",
            "DecodeResult",
            "PeelingDecoder",
            "make_batch_decoder",
            "resolve_engine",
        ),
        ".defects": ("Defect", "find_defects", "has_defects", "shared_right_set_pairs"),
        ".degree": (
            "EdgeDistribution",
            "allocate_node_degrees",
            "doubled",
            "heavy_tail_distribution",
            "match_edge_total",
            "poisson_distribution",
            "shifted",
            "solve_poisson_alpha",
        ),
        ".density": (
            "DensityReport",
            "density_report",
            "edge_polynomial",
            "realized_level_distributions",
            "recovery_threshold",
        ),
        ".generator": ("GenerationError", "GenerationReport", "generate_certified"),
        ".graph": ("Constraint", "ErasureGraph", "GraphValidationError"),
        ".graphml": (
            "from_networkx",
            "load_graphml",
            "render_failure",
            "save_graphml",
            "to_networkx",
        ),
        ".mldecoder": ("MLDecodeReport", "MLDecoder"),
        ".plancache": ("PlanCache", "graph_key"),
        ".sparse": ("SparseBitsetDecoder", "packed_sparse_loss_masks"),
    },
)
