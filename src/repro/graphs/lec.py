"""LEC-inspired graphs: automated generation and evaluation (§2.1).

Lincoln Erasure Codes were presented as a faster, more fault-tolerant
alternative to Tornado Codes — "similar to Tornado Codes but [with] a
different distribution of edges", produced by *automated generation and
evaluation* of candidate graphs.  The paper defers evaluating LEC to
future work but notes its software "can utilize any LDPC graph"; this
module exercises exactly that extension point.

Without the (unpublished) LEC distributions we implement the approach
rather than the constants: single-stage irregular graphs with a narrow
uniform left-degree band (single-stage encoding is where LEC's
throughput advantage comes from — one level of XORs instead of a
cascade), generated in batches and *scored* by exact worst-case
analysis; the best candidate wins.  The X8 bench compares the result
against the catalog Tornado graphs on both fault tolerance and
throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._checks import check_count
from ..core.bipartite import MultiEdgeRepairError, random_bipartite_edges
from ..core.critical import minimal_bad_stopping_sets
from ..core.degree import match_edge_total
from ..core.graph import Constraint, ErasureGraph

__all__ = ["LECCandidate", "lec_like_graph"]


@dataclass(frozen=True)
class LECCandidate:
    """One evaluated candidate from the automated search."""

    graph: ErasureGraph
    first_failure: int
    critical_sets: int

    @property
    def score(self) -> tuple[int, int]:
        """Higher is better: first failure, then fewer critical sets."""
        return (self.first_failure, -self.critical_sets)


def _single_stage_irregular(
    num_data: int,
    degree_band: tuple[int, int],
    rng: np.random.Generator,
    name: str,
) -> ErasureGraph:
    """One candidate: uniform degrees in the band, near-regular checks."""
    lo, hi = degree_band
    left_degrees = rng.integers(lo, hi + 1, size=num_data).tolist()
    total = sum(left_degrees)
    num_checks = num_data
    base = max(1, total // num_checks)
    right_degrees = match_edge_total(
        [base] * num_checks, total, min_degree=1
    )
    order = rng.permutation(num_checks)
    rdeg = [0] * num_checks
    for pos, d in zip(order, right_degrees):
        rdeg[pos] = d
    edges = random_bipartite_edges(left_degrees, rdeg, rng)
    by_right: dict[int, list[int]] = {r: [] for r in range(num_checks)}
    for l, r in edges:
        by_right[r].append(l)
    constraints = tuple(
        Constraint(check=num_data + r, lefts=tuple(sorted(by_right[r])))
        for r in range(num_checks)
    )
    return ErasureGraph(
        num_nodes=2 * num_data,
        data_nodes=tuple(range(num_data)),
        constraints=constraints,
        levels=(tuple(range(num_checks)),),
        name=name,
    )


def lec_like_graph(
    num_data: int,
    *,
    seed: int = 0,
    candidates: int = 12,
    degree_band: tuple[int, int] = (3, 5),
    search_limit: int = 5,
    name: str | None = None,
) -> LECCandidate:
    """Automated generate-and-evaluate search for a single-stage graph.

    Builds ``candidates`` irregular single-stage graphs and returns the
    one with the best exact worst-case score (first failure within
    ``search_limit``, ties broken by fewest minimal critical sets) —
    the LEC paper's methodology applied through this library's analysis
    machinery.
    """
    check_count(candidates, "candidates", 1)
    lo, hi = degree_band
    if not 2 <= lo <= hi:
        raise ValueError("degree band must satisfy 2 <= lo <= hi")

    best: LECCandidate | None = None
    for attempt in range(candidates):
        rng = np.random.default_rng(seed + attempt)
        try:
            graph = _single_stage_irregular(
                num_data,
                degree_band,
                rng,
                name=name or f"lec-like-n{num_data}-seed{seed + attempt}",
            )
        except MultiEdgeRepairError:
            continue
        sets = minimal_bad_stopping_sets(graph, max_size=search_limit)
        ff = min((len(s) for s in sets), default=search_limit + 1)
        candidate = LECCandidate(
            graph=graph, first_failure=ff, critical_sets=len(sets)
        )
        if best is None or candidate.score > best.score:
            best = candidate
    if best is None:
        raise MultiEdgeRepairError(
            "no candidate produced a simple bipartite graph"
        )
    return best
