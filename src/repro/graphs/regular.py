"""Regular single-stage LDPC graphs (paper §4.3, Fig. 5 / Table 3).

A regular single-stage graph connects ``n`` data nodes to ``n/2`` check
nodes in one level, with every data node having the same degree.  The
paper tests degree 4 and degree 11 variants and finds both perform
poorly relative to cascaded Tornado graphs: too little connectivity
limits recovery paths, too much makes check nodes useless (a check helps
only when it has exactly one missing left neighbour).
"""

from __future__ import annotations

import numpy as np

from .._checks import check_count
from ..core.bipartite import random_bipartite_edges
from ..core.degree import match_edge_total
from ..core.graph import Constraint, ErasureGraph

__all__ = ["regular_graph"]


def regular_graph(
    num_data: int,
    degree: int,
    *,
    num_checks: int | None = None,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    name: str | None = None,
) -> ErasureGraph:
    """Single-stage graph with uniform left degree.

    ``num_checks`` defaults to ``num_data`` (the paper's rate-1/2
    96-node configuration: 48 data + 48 checks in one level).  Right
    degrees are made as equal as the edge total allows.
    """
    check_count(degree, "degree", 2)
    if rng is None:
        rng = np.random.default_rng(seed)
    if num_checks is None:
        num_checks = num_data
    if degree > num_checks:
        raise ValueError("degree cannot exceed the number of check nodes")

    total_edges = num_data * degree
    base = total_edges // num_checks
    right_degrees = match_edge_total(
        [max(1, base)] * num_checks, total_edges, min_degree=1
    )
    # Shuffle which check receives which degree.
    order = rng.permutation(num_checks)
    rdeg = [0] * num_checks
    for pos, d in zip(order, right_degrees):
        rdeg[pos] = d

    edges = random_bipartite_edges([degree] * num_data, rdeg, rng)
    by_right: dict[int, list[int]] = {r: [] for r in range(num_checks)}
    for l, r in edges:
        by_right[r].append(l)
    constraints = tuple(
        Constraint(check=num_data + r, lefts=tuple(sorted(by_right[r])))
        for r in range(num_checks)
    )
    return ErasureGraph(
        num_nodes=num_data + num_checks,
        data_nodes=tuple(range(num_data)),
        constraints=constraints,
        levels=(tuple(range(num_checks)),),
        name=name or f"regular-deg{degree}-n{num_data}-seed{seed}",
    )
