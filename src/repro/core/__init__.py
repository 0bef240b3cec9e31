"""Core Tornado Code machinery: graphs, decoding, analysis, adjustment.

This subpackage implements the paper's primary contribution — the
construction, certification, and fault-tolerance analysis of small
Tornado Code graphs — plus the data codec that turns a certified graph
into an actual erasure code.
"""

from .adjust import AdjustmentResult, AdjustmentStep, adjust_graph, rewire
from .bipartite import MultiEdgeRepairError, random_bipartite_edges
from .cascade import (
    CascadePlan,
    cascade_graph_from_degrees,
    plan_cascade,
    tornado_graph,
)
from .codec import (
    DecodeFailure,
    EncodedStripe,
    TornadoCodec,
    stripe_rows,
)
from .critical import (
    CriticalReport,
    analyze_worst_case,
    count_failing_sets,
    exhaustive_failing_sets,
    failing_set_counts,
    first_failure,
    is_stopping_set,
    min_bad_stopping_set_containing,
    minimal_bad_stopping_sets,
)
from .bitdecoder import (
    BitsetBatchDecoder,
    pack_cases,
    packed_random_loss_masks,
    unpack_cases,
)
from .csrgraph import CsrGraph, tornado_csr_graph
from .decoder import (
    DECODE_ENGINES,
    DecodeResult,
    PeelingDecoder,
    make_batch_decoder,
    resolve_engine,
)
from .plancache import PlanCache, graph_key
from .sparse import SparseBitsetDecoder, packed_sparse_loss_masks
from .density import (
    DensityReport,
    density_report,
    edge_polynomial,
    realized_level_distributions,
    recovery_threshold,
)
from .defects import Defect, find_defects, has_defects, shared_right_set_pairs
from .degree import (
    EdgeDistribution,
    allocate_node_degrees,
    doubled,
    heavy_tail_distribution,
    match_edge_total,
    poisson_distribution,
    shifted,
    solve_poisson_alpha,
)
from .generator import GenerationError, GenerationReport, generate_certified
from .graph import Constraint, ErasureGraph, GraphValidationError
from .graphml import (
    from_networkx,
    load_graphml,
    render_failure,
    save_graphml,
    to_networkx,
)
from .mldecoder import MLDecodeReport, MLDecoder

__all__ = [
    "DensityReport",
    "density_report",
    "edge_polynomial",
    "realized_level_distributions",
    "recovery_threshold",
    "AdjustmentResult",
    "AdjustmentStep",
    "BitsetBatchDecoder",
    "CascadePlan",
    "CsrGraph",
    "DECODE_ENGINES",
    "Constraint",
    "SparseBitsetDecoder",
    "CriticalReport",
    "DecodeFailure",
    "DecodeResult",
    "Defect",
    "EdgeDistribution",
    "EncodedStripe",
    "ErasureGraph",
    "GenerationError",
    "GenerationReport",
    "GraphValidationError",
    "MLDecodeReport",
    "MLDecoder",
    "MultiEdgeRepairError",
    "PeelingDecoder",
    "PlanCache",
    "TornadoCodec",
    "adjust_graph",
    "allocate_node_degrees",
    "analyze_worst_case",
    "cascade_graph_from_degrees",
    "count_failing_sets",
    "doubled",
    "exhaustive_failing_sets",
    "failing_set_counts",
    "find_defects",
    "first_failure",
    "from_networkx",
    "generate_certified",
    "graph_key",
    "has_defects",
    "heavy_tail_distribution",
    "is_stopping_set",
    "load_graphml",
    "make_batch_decoder",
    "match_edge_total",
    "pack_cases",
    "packed_random_loss_masks",
    "packed_sparse_loss_masks",
    "min_bad_stopping_set_containing",
    "minimal_bad_stopping_sets",
    "plan_cascade",
    "poisson_distribution",
    "random_bipartite_edges",
    "render_failure",
    "resolve_engine",
    "rewire",
    "save_graphml",
    "shared_right_set_pairs",
    "shifted",
    "solve_poisson_alpha",
    "stripe_rows",
    "to_networkx",
    "tornado_csr_graph",
    "tornado_graph",
    "unpack_cases",
]
