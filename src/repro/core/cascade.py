"""Cascaded Tornado Code graph construction.

A rate-1/2 Tornado Code over ``n`` data nodes is a cascade of bipartite
levels: the ``n`` data nodes feed ``n/2`` check nodes, those feed ``n/4``,
and so on.  Following the Typhoon implementation the paper adopts, the
cascade stops early and the *final two stages share the same left nodes*:
once the halving reaches a layer of ``F`` nodes, two independent groups
of ``F/2`` check nodes are each computed from the whole set of ``F``
lefts.  With that arrangement the check-node total is exactly ``n`` for
any depth::

    n/2 + n/4 + ... + n/2^m  +  2 * (n/2^(m+1))  =  n

so a 48-data-node graph always has 96 nodes total (the paper's system
size), and the smallest constructible graph is 32 total nodes (16 data:
one halving layer of 8, then two shared-left groups of 4) — matching
§3.1 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._checks import check_count
from .bipartite import MultiEdgeRepairError, random_bipartite_edges
from .degree import (
    EdgeDistribution,
    allocate_node_degrees,
    heavy_tail_distribution,
    match_edge_total,
    poisson_distribution,
    solve_poisson_alpha,
)
from .graph import Constraint, ErasureGraph

__all__ = [
    "CascadePlan",
    "plan_cascade",
    "tornado_graph",
    "cascade_graph_from_degrees",
]

DEFAULT_HEAVY_TAIL_D = 16  # implies average left degree ~3.59 (paper: 3.6)


@dataclass(frozen=True)
class CascadePlan:
    """Level sizes of a cascade: halving layers plus shared-left finale."""

    num_data: int
    halving_layers: tuple[int, ...]
    final_lefts: int

    @property
    def num_checks(self) -> int:
        return sum(self.halving_layers) + self.final_lefts

    @property
    def num_nodes(self) -> int:
        return self.num_data + self.num_checks

    @property
    def final_group_size(self) -> int:
        return self.final_lefts // 2


def plan_cascade(num_data: int, min_final_lefts: int = 6) -> CascadePlan:
    """Compute layer sizes for a rate-1/2 cascade over ``num_data`` nodes.

    Halving continues while the next layer stays at or above
    ``min_final_lefts``; the last produced layer becomes the shared left
    set of the double final stage.  ``num_data`` must halve cleanly down
    to an even final layer.
    """
    check_count(num_data, "num_data", 4)
    layers: list[int] = []
    size = num_data
    while size % 2 == 0 and size // 2 >= min_final_lefts:
        size //= 2
        layers.append(size)
    if size % 2 != 0:
        raise ValueError(
            f"num_data={num_data} does not reduce to an even final layer "
            f"(stuck at {size}); choose a num_data divisible by a higher "
            "power of two or lower min_final_lefts"
        )
    return CascadePlan(
        num_data=num_data,
        halving_layers=tuple(layers),
        final_lefts=size,
    )


def _cap_distribution(dist: EdgeDistribution, max_degree: int) -> EdgeDistribution:
    """Drop degrees a level cannot realise (more edges than right nodes)."""
    kept = tuple((d, w) for d, w in dist.weights if d <= max_degree)
    if not kept:
        # Degenerate small level: fall back to the largest feasible degree.
        kept = ((max(2, max_degree), 1.0),)
    return EdgeDistribution(kept)


def _build_level(
    left_ids: list[int],
    right_ids: list[int],
    left_degrees: list[int],
    rng: np.random.Generator,
    right_max_degree: int | None = None,
) -> list[Constraint]:
    """One cascade level: Poisson right side matched to given left degrees."""
    num_left, num_right = len(left_ids), len(right_ids)
    total_edges = sum(left_degrees)
    target_avg = total_edges / num_right
    max_deg = min(right_max_degree or num_left, num_left)
    if target_avg <= 2.0:
        right_degrees = match_edge_total(
            [2] * num_right, total_edges, min_degree=1
        )
    else:
        alpha = solve_poisson_alpha(target_avg, max_deg)
        rho = poisson_distribution(alpha, max_deg)
        right_degrees = match_edge_total(
            allocate_node_degrees(rho, num_right), total_edges, min_degree=2
        )
    if max(right_degrees) > num_left:
        right_degrees = _clip_degrees(right_degrees, num_left)
    # Shuffle which physical node gets which degree so the degree-id
    # correlation does not bias the structure.
    left_order = rng.permutation(num_left)
    right_order = rng.permutation(num_right)
    ldeg = [0] * num_left
    for pos, d in zip(left_order, left_degrees):
        ldeg[pos] = d
    rdeg = [0] * num_right
    for pos, d in zip(right_order, right_degrees):
        rdeg[pos] = d

    edges = random_bipartite_edges(ldeg, rdeg, rng)
    by_right: dict[int, list[int]] = {r: [] for r in range(num_right)}
    for l, r in edges:
        by_right[r].append(left_ids[l])
    return [
        Constraint(check=right_ids[r], lefts=tuple(sorted(by_right[r])))
        for r in range(num_right)
    ]


def _clip_degrees(degrees: list[int], max_degree: int) -> list[int]:
    """Clamp any degree above ``max_degree``, pushing excess onto others."""
    seq = sorted(degrees, reverse=True)
    excess = 0
    for i, d in enumerate(seq):
        if d > max_degree:
            excess += d - max_degree
            seq[i] = max_degree
    i = len(seq) - 1
    while excess > 0 and i >= 0:
        room = max_degree - seq[i]
        take = min(room, excess)
        seq[i] += take
        excess -= take
        i -= 1
    if excess:
        raise MultiEdgeRepairError("degree sequence cannot fit level size")
    return seq


def _build_final_stage(
    left_ids: list[int],
    group_a_ids: list[int],
    group_b_ids: list[int],
    rng: np.random.Generator,
) -> list[Constraint]:
    """Typhoon-style double final stage over a shared left set.

    Each right group is an independent dense random code on *all* the
    lefts: every (left, right) edge is present with probability 1/2,
    resampled so every right keeps degree >= 2 and, per group, every left
    is covered at least once (so the finale actually protects the last
    halving layer).
    """
    constraints: list[Constraint] = []
    f = len(left_ids)
    for group in (group_a_ids, group_b_ids):
        for _attempt in range(500):
            rows = rng.random((len(group), f)) < 0.5
            if (rows.sum(axis=1) >= 2).all() and rows.any(axis=0).all():
                break
        else:  # pragma: no cover - p(fail) vanishes for f >= 4
            raise MultiEdgeRepairError("final stage sampling failed")
        for gi, check in enumerate(group):
            lefts = tuple(left_ids[j] for j in np.flatnonzero(rows[gi]))
            constraints.append(Constraint(check=check, lefts=lefts))
    return constraints


def tornado_graph(
    num_data: int,
    *,
    left_dist: EdgeDistribution | None = None,
    heavy_tail_d: int = DEFAULT_HEAVY_TAIL_D,
    min_final_lefts: int = 6,
    right_max_degree: int | None = None,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    name: str | None = None,
) -> ErasureGraph:
    """Generate one random Tornado Code graph.

    Parameters mirror the paper's construction: a heavy-tail left edge
    distribution (``heavy_tail_d=16`` reproduces the ~3.6 average degree),
    Poisson right distribution solved per level, rate-1/2 halving cascade
    and the Typhoon shared-left double final stage.  ``seed`` (or an
    explicit ``rng``) makes construction reproducible; the same seed
    always yields the same graph.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    if left_dist is None:
        left_dist = heavy_tail_distribution(heavy_tail_d)

    plan = plan_cascade(num_data, min_final_lefts=min_final_lefts)
    constraints: list[Constraint] = []
    levels: list[tuple[int, ...]] = []

    next_id = num_data
    left_ids = list(range(num_data))
    for layer_size in plan.halving_layers:
        right_ids = list(range(next_id, next_id + layer_size))
        next_id += layer_size
        capped = _cap_distribution(left_dist, layer_size)
        left_degrees = allocate_node_degrees(capped, len(left_ids))
        start = len(constraints)
        constraints.extend(
            _build_level(
                left_ids, right_ids, left_degrees, rng,
                right_max_degree=right_max_degree,
            )
        )
        levels.append(tuple(range(start, len(constraints))))
        left_ids = right_ids

    g = plan.final_group_size
    group_a = list(range(next_id, next_id + g))
    group_b = list(range(next_id + g, next_id + 2 * g))
    start = len(constraints)
    constraints.extend(_build_final_stage(left_ids, group_a, group_b, rng))
    levels.append(tuple(range(start, len(constraints))))

    return ErasureGraph(
        num_nodes=plan.num_nodes,
        data_nodes=tuple(range(num_data)),
        constraints=tuple(constraints),
        levels=tuple(levels),
        name=name or f"tornado-n{num_data}-seed{seed}",
    )


def cascade_graph_from_degrees(
    num_data: int,
    left_degree: int,
    *,
    min_final_lefts: int = 6,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    name: str | None = None,
) -> ErasureGraph:
    """Fixed-degree cascaded random graph (paper §4.3, Fig. 6 / Table 4).

    Same level structure as a Tornado cascade, but every left node has
    the same fixed degree instead of the heavy-tail distribution.
    """
    check_count(left_degree, "left_degree", 2)
    if rng is None:
        rng = np.random.default_rng(seed)
    plan = plan_cascade(num_data, min_final_lefts=min_final_lefts)
    constraints: list[Constraint] = []
    levels: list[tuple[int, ...]] = []

    next_id = num_data
    left_ids = list(range(num_data))
    for layer_size in plan.halving_layers:
        right_ids = list(range(next_id, next_id + layer_size))
        next_id += layer_size
        deg = min(left_degree, layer_size)
        start = len(constraints)
        constraints.extend(
            _build_level(left_ids, right_ids, [deg] * len(left_ids), rng)
        )
        levels.append(tuple(range(start, len(constraints))))
        left_ids = right_ids

    g = plan.final_group_size
    group_a = list(range(next_id, next_id + g))
    group_b = list(range(next_id + g, next_id + 2 * g))
    start = len(constraints)
    constraints.extend(_build_final_stage(left_ids, group_a, group_b, rng))
    levels.append(tuple(range(start, len(constraints))))

    return ErasureGraph(
        num_nodes=plan.num_nodes,
        data_nodes=tuple(range(num_data)),
        constraints=tuple(constraints),
        levels=tuple(levels),
        name=name or f"cascade-deg{left_degree}-n{num_data}-seed{seed}",
    )
