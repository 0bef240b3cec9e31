"""Edge-degree distributions for Tornado Code construction.

Luby's construction works with *edge* degree distributions: ``lambda_[i]``
is the fraction of edges incident to left nodes of degree ``i`` (the
heavy-tail distribution), and ``rho[i]`` the fraction of edges incident to
right nodes of degree ``i`` (truncated Poisson).  Turning an edge
distribution into an integer number of nodes per degree is where the
paper's generator differs from a naive reading of Luby: with 96-node
graphs the fractional node counts round to nonsense ("5 edges of degree
6"), so the paper adds a numeric solver that finds a constant multiplier
for the edge distribution producing exactly the required node count.
:func:`allocate_node_degrees` implements that solver as a scaling +
largest-remainder apportionment, which hits the target count exactly and
is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .._checks import check_count, check_seconds

__all__ = [
    "EdgeDistribution",
    "heavy_tail_distribution",
    "poisson_distribution",
    "solve_poisson_alpha",
    "allocate_node_degrees",
    "match_edge_total",
    "doubled",
    "shifted",
]


def _harmonic(n: int) -> float:
    return sum(1.0 / j for j in range(1, n + 1))


@dataclass(frozen=True)
class EdgeDistribution:
    """A normalised edge-degree distribution ``degree -> edge fraction``."""

    weights: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        total = sum(w for _, w in self.weights)
        if not self.weights or total <= 0:
            raise ValueError("distribution needs positive weight")
        norm = tuple(
            (d, w / total) for d, w in sorted(self.weights) if w > 0
        )
        for d, _ in norm:
            check_count(d, "edge degree", 1)
        object.__setattr__(self, "weights", norm)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.weights)

    def fraction(self, degree: int) -> float:
        for d, w in self.weights:
            if d == degree:
                return w
        return 0.0

    def average_node_degree(self) -> float:
        """Mean node degree implied by the edge distribution.

        A fraction ``w`` of edges at degree ``d`` accounts for ``w / d``
        of the nodes per edge, so the average node degree is
        ``1 / sum(w_d / d)``.
        """
        return 1.0 / sum(w / d for d, w in self.weights)

    def as_mapping(self) -> dict[int, float]:
        return dict(self.weights)


def heavy_tail_distribution(d: int) -> EdgeDistribution:
    """Luby's heavy-tail left distribution with parameter ``d``.

    ``lambda_i = 1 / (H(d) * (i - 1))`` for ``i = 2 .. d+1``.  The implied
    average left node degree is ``(d+1) H(d) / d``; ``d = 16`` gives ~3.59,
    matching the paper's reported average degree of 3.6.
    """
    check_count(d, "d", 1)
    h = _harmonic(d)
    return EdgeDistribution(
        tuple((i, 1.0 / (h * (i - 1))) for i in range(2, d + 2))
    )


def poisson_distribution(alpha: float, max_degree: int) -> EdgeDistribution:
    """Truncated Poisson right edge distribution.

    ``rho_i`` proportional to ``alpha^(i-1) / (i-1)!`` for
    ``i = 1 .. max_degree`` (normalisation handles the truncation).
    Degree-1 right nodes are useless for coding (they mirror a single
    left node), so the distribution is truncated below at degree 2.
    """
    check_seconds(alpha, "alpha")
    check_count(max_degree, "max_degree", 2)
    weights = []
    for i in range(2, max_degree + 1):
        weights.append((i, alpha ** (i - 1) / math.factorial(i - 1)))
    return EdgeDistribution(tuple(weights))


def solve_poisson_alpha(
    target_node_degree: float, max_degree: int, tol: float = 1e-10
) -> float:
    """Find ``alpha`` whose truncated Poisson has the given node degree.

    The average right node degree must equal ``a_lambda / beta`` so edge
    counts balance between the two sides of a level; this inverts
    :func:`poisson_distribution.average_node_degree` by bisection (the
    average is strictly increasing in ``alpha``).
    """
    lo, hi = 1e-6, 1e-6
    # Grow hi until it brackets the target.
    for _ in range(200):
        hi *= 2.0
        if poisson_distribution(hi, max_degree).average_node_degree() >= target_node_degree:
            break
    else:
        raise ValueError(
            f"target node degree {target_node_degree} unreachable with "
            f"max_degree={max_degree}"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if poisson_distribution(mid, max_degree).average_node_degree() < target_node_degree:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def allocate_node_degrees(
    dist: EdgeDistribution, num_nodes: int
) -> list[int]:
    """Integer node-degree sequence realising ``dist`` over ``num_nodes``.

    This is the paper's "numeric solver to find a constant multiplier for
    the edge distribution that produced the correct number of nodes": the
    ideal (real-valued) node count of degree ``d`` is ``c * w_d / d``; the
    multiplier ``c`` that makes the counts sum to ``num_nodes`` is
    ``num_nodes / sum(w_d / d)``, and largest-remainder rounding turns
    the real counts into integers summing exactly to ``num_nodes``.

    Returns a per-node degree list (sorted descending).
    """
    check_count(num_nodes, "num_nodes", 1)
    node_weights = [(d, w / d) for d, w in dist.weights]
    scale = num_nodes / sum(w for _, w in node_weights)
    ideal = [(d, w * scale) for d, w in node_weights]
    counts = {d: int(math.floor(x)) for d, x in ideal}
    remainder = num_nodes - sum(counts.values())
    # Assign leftover nodes to the degrees with the largest fractional
    # part (ties broken toward smaller degree for stability).
    order = sorted(
        ideal, key=lambda dx: (dx[1] - math.floor(dx[1]), -dx[0]), reverse=True
    )
    for d, _ in order[:remainder]:
        counts[d] += 1
    degrees: list[int] = []
    for d in sorted(counts, reverse=True):
        degrees.extend([d] * counts[d])
    assert len(degrees) == num_nodes
    return degrees


def match_edge_total(degrees: Sequence[int], target_edges: int,
                     min_degree: int = 2) -> list[int]:
    """Adjust a node-degree sequence so its sum equals ``target_edges``.

    Left and right sides of a bipartite level must agree on the total
    edge count; the right-side sequence is nudged by ±1 spread across
    nodes (never dropping any node below ``min_degree``).  Deterministic:
    adjustments go to the currently largest (to shed edges) or smallest
    (to add edges) degrees first, keeping the sequence as close to the
    target distribution as possible.
    """
    seq = sorted(degrees, reverse=True)
    diff = target_edges - sum(seq)
    if diff == 0:
        return seq
    if diff > 0:
        i = len(seq) - 1
        while diff > 0:
            seq[i] += 1
            diff -= 1
            i = i - 1 if i > 0 else len(seq) - 1
    else:
        safety = 0
        while diff < 0:
            progressed = False
            for i in range(len(seq)):
                if diff == 0:
                    break
                if seq[i] > min_degree:
                    seq[i] -= 1
                    diff += 1
                    progressed = True
            if not progressed:
                raise ValueError(
                    "cannot shrink degree sequence to "
                    f"{target_edges} edges without violating min_degree"
                )
            safety += 1
            if safety > 10_000:  # pragma: no cover - defensive
                raise RuntimeError("match_edge_total failed to converge")
    return sorted(seq, reverse=True)


def doubled(dist: EdgeDistribution) -> EdgeDistribution:
    """The paper's "distribution doubled" alteration: degree i -> 2i."""
    return EdgeDistribution(tuple((2 * d, w) for d, w in dist.weights))


def shifted(dist: EdgeDistribution, delta: int = 1) -> EdgeDistribution:
    """The paper's "distribution shifted" alteration: degree i -> i+delta."""
    if any(d + delta < 1 for d, _ in dist.weights):
        raise ValueError("shift would create degree < 1")
    return EdgeDistribution(tuple((d + delta, w) for d, w in dist.weights))
