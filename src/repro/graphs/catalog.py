"""Precompiled graph catalog — the reproduction's "Tornado Graph 1/2/3".

The paper's conclusion is operational: "a storage system using Tornado
Codes where data loss must be avoided should use precompiled graphs and
not random graphs".  The paper's own three graphs are unpublished, so
this catalog regenerates equivalents with the same pipeline (certified
generation at first-failure 4, feedback adjustment to first-failure 5)
from recorded seeds, ordered so graph 3 has the fewest 5-loss failure
cases — mirroring the paper's "Tornado Graph 3 (best)" labelling.

Catalog entries are deterministic and cached per process; building all
three takes well under a second.
"""

from __future__ import annotations

from functools import lru_cache

from .._checks import check_count
from ..core.adjust import adjust_graph
from ..core.cascade import cascade_graph_from_degrees
from ..core.generator import generate_certified
from ..core.graph import ErasureGraph
from .altered import altered_tornado_doubled, altered_tornado_shifted
from .mirror import mirrored_graph, striped_graph
from .regular import regular_graph

__all__ = [
    "TORNADO_SEEDS",
    "tornado_catalog_graph",
    "catalog_96_node_systems",
]

#: Seeds of the three certified + adjusted catalog graphs, in paper
#: numbering (graph 3 is "best": fewest failing 5-sets after adjustment).
TORNADO_SEEDS: dict[int, int] = {1: 32, 2: 99, 3: 69}

NUM_DATA_96 = 48  # the paper's 96-node system: 48 data + 48 check nodes


def tornado_catalog_graph(number: int, adjusted: bool = True) -> ErasureGraph:
    """Tornado Graph ``number`` (1, 2 or 3) of the 96-node catalog.

    ``adjusted=False`` returns the pre-adjustment certified graph (first
    failure 4) for the E2 adjustment experiment; the default returns the
    feedback-adjusted graph (first failure 5).  ``number`` is any integer
    (``np.int64(2)`` gives the same object as ``2``); a bool or a float
    raises ``TypeError``.
    """
    return _catalog_graph(check_count(number, "number"), adjusted)


@lru_cache(maxsize=None)
def _catalog_graph(number: int, adjusted: bool) -> ErasureGraph:
    if number not in TORNADO_SEEDS:
        raise KeyError(f"catalog has graphs 1-3, not {number}")
    seed = TORNADO_SEEDS[number]
    report = generate_certified(NUM_DATA_96, seed=seed)
    graph = report.graph.renamed(f"tornado-graph-{number}")
    if not adjusted:
        return graph
    result = adjust_graph(graph, target_first_failure=5)
    if not result.achieved_target:  # pragma: no cover - seeds are vetted
        raise RuntimeError(
            f"catalog seed {seed} no longer adjusts to first failure 5"
        )
    return result.graph.renamed(f"tornado-graph-{number}")


@lru_cache(maxsize=None)
def catalog_96_node_systems() -> dict[str, ErasureGraph]:
    """Every 96-node graph family the paper's figures compare.

    Keys follow the paper's labels.  RAID5/RAID6 are analytic models
    (see :mod:`repro.raid`) and are not expressible as XOR peeling
    graphs, so they are absent here.
    """
    # Family seeds were scanned so first failures match the paper's
    # Tables 3-4 (altered Tornado: 5; cascaded degree 6/4/3: 5/4/4;
    # regular degree 4: 4).  No 96-node regular degree-11 seed in the
    # scanned range fails before 5 — our instance is stronger at worst
    # case than the paper's, but shows the same poor average failure
    # point, which is the comparison Fig. 5 makes.
    return {
        "Mirrored": mirrored_graph(NUM_DATA_96),
        "Striped": striped_graph(2 * NUM_DATA_96),
        "Tornado Graph 1": tornado_catalog_graph(1),
        "Tornado Graph 2": tornado_catalog_graph(2),
        "Tornado Graph 3": tornado_catalog_graph(3),
        "Regular - Degree 4": regular_graph(NUM_DATA_96, 4, seed=4),
        "Regular - Degree 11": regular_graph(NUM_DATA_96, 11, seed=11),
        "Altered Tornado (dist. doubled)": altered_tornado_doubled(
            NUM_DATA_96, seed=2
        ),
        "Altered Tornado (dist. shifted)": altered_tornado_shifted(
            NUM_DATA_96, seed=10
        ),
        "Cascaded - Degree 3": cascade_graph_from_degrees(
            NUM_DATA_96, 3, seed=1
        ),
        "Cascaded - Degree 4": cascade_graph_from_degrees(
            NUM_DATA_96, 4, seed=2
        ),
        "Cascaded - Degree 6": cascade_graph_from_degrees(
            NUM_DATA_96, 6, seed=1
        ),
    }
