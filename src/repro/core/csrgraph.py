"""Flat CSR representation of an erasure graph for million-node scale.

:class:`~repro.core.graph.ErasureGraph` stores one Python
:class:`~repro.core.graph.Constraint` object per parity equation, which
is perfect for the paper's 96-node analyses but drowns at the block
lengths where LDPC-family asymptotics appear (2^20 nodes means half a
million constraint objects and minutes of pure-Python validation before
the first decode).  :class:`CsrGraph` keeps the same information as
three flat NumPy arrays:

* ``con_nodes`` — member node ids of every constraint, concatenated
  (check first, then lefts, within each constraint);
* ``con_indptr`` — ``con_indptr[i]:con_indptr[i+1]`` slices constraint
  ``i``'s members out of ``con_nodes`` (standard CSR index pointer);
* ``data_nodes`` — ids of the nodes carrying original data.

That layout is exactly what the sparse decode engine
(:mod:`repro.core.sparse`) consumes, adopted zero-copy, and it pickles
as raw buffers — which is how a process-pool worker of
:mod:`repro.sim.montecarlo` receives it, once, through the pool
initializer.

:func:`tornado_csr_graph` builds rate-1/2 Tornado cascades straight
into this form with vectorised level construction (heavy-tail left
degrees, shuffled stub pairing, the Typhoon shared-left double final
stage), generating a 2^20-node graph in seconds.  It is a
benchmark-grade generator: the cascade structure matches
:func:`~repro.core.cascade.tornado_graph`, but the edge-placement RNG
stream is its own, so it is *not* sample-identical to the object
generator at equal seeds.  For exact cross-checks against the object
representation use :meth:`CsrGraph.from_graph`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._checks import check_count
from .cascade import plan_cascade
from .degree import heavy_tail_distribution
from .graph import Constraint, ErasureGraph

__all__ = ["CsrGraph", "tornado_csr_graph"]

DEFAULT_HEAVY_TAIL_D = 16  # same ~3.6 average left degree as the paper


@dataclass(frozen=True)
class CsrGraph:
    """An erasure graph as flat CSR arrays (see module docstring).

    The decode semantics are identical to
    :class:`~repro.core.graph.ErasureGraph`: each ``con_nodes`` slice is
    one XOR parity relation whose single unknown member (if any) is
    recoverable from the rest; decoding succeeds when every node in
    ``data_nodes`` is known.
    """

    num_nodes: int
    data_nodes: np.ndarray
    con_nodes: np.ndarray
    con_indptr: np.ndarray
    name: str = "csr-graph"
    #: Optional cascade metadata: ``(lo, hi)`` constraint index ranges,
    #: one per level, ascending and contiguous over ``[0, C)``; empty
    #: means one level.
    level_ranges: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "data_nodes", np.asarray(self.data_nodes, dtype=np.intp)
        )
        object.__setattr__(
            self, "con_nodes", np.asarray(self.con_nodes, dtype=np.intp)
        )
        object.__setattr__(
            self, "con_indptr", np.asarray(self.con_indptr, dtype=np.intp)
        )
        self.validate()

    def validate(self) -> None:
        check_count(self.num_nodes, "num_nodes", 1)
        if self.data_nodes.size == 0:
            raise ValueError("graph needs at least one data node")
        indptr = self.con_indptr
        if indptr.ndim != 1 or indptr.size < 1 or indptr[0] != 0:
            raise ValueError("con_indptr must be 1-D and start at 0")
        if indptr[-1] != self.con_nodes.size:
            raise ValueError("con_indptr must end at con_nodes.size")
        if (np.diff(indptr) < 1).any():
            raise ValueError("every constraint needs at least one member")
        for arr, label in (
            (self.data_nodes, "data node"),
            (self.con_nodes, "constraint member"),
        ):
            if arr.size and (
                int(arr.min()) < 0 or int(arr.max()) >= self.num_nodes
            ):
                raise ValueError(f"{label} id out of range")
        # The sparse kernel peels one block per range: a gap or an
        # overlap would skip or repeat constraints.
        ranges = self.level_ranges
        if ranges:
            lows = [lo for lo, _ in ranges]
            highs = [hi for _, hi in ranges]
            if (lows != [0, *highs[:-1]] or highs[-1] != self.num_constraints
                    or any(lo >= hi for lo, hi in ranges)):
                raise ValueError(
                    "level_ranges must be ascending, contiguous ranges "
                    f"covering [0, {self.num_constraints})"
                )

    # ------------------------------------------------------------------

    @property
    def num_data(self) -> int:
        return int(self.data_nodes.size)

    @property
    def num_constraints(self) -> int:
        return int(self.con_indptr.size - 1)

    @property
    def num_members(self) -> int:
        """Total member entries across all constraints."""
        return int(self.con_nodes.size)

    def constraint_members(self) -> list[tuple[int, ...]]:
        """Member tuples of every constraint (matches ``ErasureGraph``).

        Materialises one Python tuple per constraint — fine for the
        sizes where the dense engines are useful, avoid at 2^20 nodes.
        """
        indptr = self.con_indptr
        flat = self.con_nodes.tolist()
        return [
            tuple(flat[indptr[i]: indptr[i + 1]])
            for i in range(self.num_constraints)
        ]

    @classmethod
    def from_graph(cls, graph: ErasureGraph) -> "CsrGraph":
        """Exact CSR view of an existing :class:`ErasureGraph`."""
        members = graph.constraint_members()
        lens = np.fromiter(
            (len(m) for m in members), dtype=np.intp, count=len(members)
        )
        indptr = np.zeros(len(members) + 1, dtype=np.intp)
        np.cumsum(lens, out=indptr[1:])
        flat = np.fromiter(
            (n for m in members for n in m),
            dtype=np.intp,
            count=int(lens.sum()),
        )
        # Ranges only when the levels are consecutive index runs; any
        # other partition is dropped, and the kernel peels one block.
        levels = [lev for lev in graph.levels if lev]
        ranges = ()
        if [i for lev in levels for i in lev] == list(range(len(members))):
            ranges = tuple((lev[0], lev[-1] + 1) for lev in levels)
        return cls(
            num_nodes=graph.num_nodes,
            data_nodes=np.asarray(graph.data_nodes, dtype=np.intp),
            con_nodes=flat,
            con_indptr=indptr,
            name=graph.name,
            level_ranges=ranges,
        )

    def to_graph(self) -> ErasureGraph:
        """Rebuild a full :class:`ErasureGraph` (small graphs only).

        The first member of each constraint is taken as the check node,
        matching the ``(check, *lefts)`` member order both
        :meth:`from_graph` and :func:`tornado_csr_graph` write.
        """
        constraints = tuple(
            Constraint(check=m[0], lefts=tuple(m[1:]))
            for m in self.constraint_members()
        )
        levels = tuple(
            tuple(range(lo, hi)) for lo, hi in self.level_ranges
        )
        return ErasureGraph(
            num_nodes=self.num_nodes,
            data_nodes=tuple(int(d) for d in self.data_nodes),
            constraints=constraints,
            levels=levels,
            name=self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CsrGraph(name={self.name!r}, nodes={self.num_nodes}, "
            f"data={self.num_data}, constraints={self.num_constraints}, "
            f"members={self.num_members})"
        )


def _sample_left_degrees(
    dist, num_left: int, max_degree: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorised draw of per-left degrees from an edge distribution.

    ``dist`` carries *edge* fractions; a fraction ``w`` of edges at
    degree ``d`` corresponds to ``w / d`` of the *nodes*, so node
    degrees are drawn with weights ``w / d`` (the same conversion
    :func:`~repro.core.degree.allocate_node_degrees` apportions).
    """
    degrees = np.array([d for d, _ in dist.weights], dtype=np.intp)
    weights = np.array([w / d for d, w in dist.weights], dtype=float)
    keep = degrees <= max_degree
    if keep.any():
        degrees, weights = degrees[keep], weights[keep]
    else:
        degrees = np.array([max(2, max_degree)], dtype=np.intp)
        weights = np.ones(1)
    weights = weights / weights.sum()
    return rng.choice(degrees, size=num_left, p=weights)


def _build_csr_level(
    left_ids: np.ndarray,
    right_start: int,
    num_right: int,
    left_degrees: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One cascade level in flat form.

    Left stubs (each left repeated by its degree) are shuffled and dealt
    round-robin to the right nodes, which mixes degrees like the stub
    pairing of :func:`~repro.core.bipartite.random_bipartite_edges`
    while staying fully vectorised.  Duplicate (left, right) edges are
    dropped — the paper's generator repairs them instead, but for XOR
    relations a duplicate member cancels, so removal preserves the
    constraint semantics.  Every right node keeps >= 1 left because the
    stub count is a multiple-free round-robin over ``num_right`` and
    total stubs >= num_right.

    Returns ``(con_nodes_flat, lens)`` for the ``num_right`` new
    constraints, member order ``(check, *lefts)``.
    """
    stubs = np.repeat(left_ids, left_degrees)
    rng.shuffle(stubs)
    rights = np.arange(stubs.size, dtype=np.intp) % num_right
    # Sort by (right, left) then drop duplicate pairs.
    order = np.lexsort((stubs, rights))
    r_s, l_s = rights[order], stubs[order]
    fresh = np.ones(r_s.size, dtype=bool)
    fresh[1:] = (r_s[1:] != r_s[:-1]) | (l_s[1:] != l_s[:-1])
    r_s, l_s = r_s[fresh], l_s[fresh]
    lefts_per_right = np.bincount(r_s, minlength=num_right).astype(np.intp)
    if (lefts_per_right < 1).any():  # pragma: no cover - see docstring
        raise ValueError("csr level construction left a right node empty")
    lens = lefts_per_right + 1  # + the check node itself
    indptr = np.zeros(num_right + 1, dtype=np.intp)
    np.cumsum(lens, out=indptr[1:])
    flat = np.empty(int(indptr[-1]), dtype=np.intp)
    flat[indptr[:-1]] = right_start + np.arange(num_right, dtype=np.intp)
    member_slots = np.arange(flat.size, dtype=np.intp)
    is_left = np.ones(flat.size, dtype=bool)
    is_left[indptr[:-1]] = False
    flat[member_slots[is_left]] = l_s
    return flat, lens


def tornado_csr_graph(
    num_data: int,
    *,
    heavy_tail_d: int = DEFAULT_HEAVY_TAIL_D,
    min_final_lefts: int = 6,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    name: str | None = None,
) -> CsrGraph:
    """Generate a rate-1/2 Tornado cascade directly in CSR form.

    Same level plan as :func:`~repro.core.cascade.tornado_graph` (the
    paper's halving cascade with the Typhoon shared-left double final
    stage), built with vectorised stub pairing so 2^20-node graphs
    construct in seconds.  Deterministic for a given ``seed``.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    dist = heavy_tail_distribution(heavy_tail_d)
    plan = plan_cascade(num_data, min_final_lefts=min_final_lefts)

    parts: list[np.ndarray] = []
    len_parts: list[np.ndarray] = []
    level_ranges: list[tuple[int, int]] = []
    cons_so_far = 0

    next_id = num_data
    left_ids = np.arange(num_data, dtype=np.intp)
    for layer_size in plan.halving_layers:
        left_degrees = _sample_left_degrees(
            dist, left_ids.size, layer_size, rng
        )
        flat, lens = _build_csr_level(
            left_ids, next_id, layer_size, left_degrees, rng
        )
        parts.append(flat)
        len_parts.append(lens)
        level_ranges.append((cons_so_far, cons_so_far + layer_size))
        cons_so_far += layer_size
        left_ids = np.arange(next_id, next_id + layer_size, dtype=np.intp)
        next_id += layer_size

    # Typhoon double final stage: two independent dense random groups
    # over the shared final left set, p = 1/2 per edge, resampled until
    # every check keeps degree >= 2 and every left is covered per group.
    f = left_ids.size
    g = plan.final_group_size
    for group in range(2):
        check_ids = np.arange(next_id, next_id + g, dtype=np.intp)
        next_id += g
        for _attempt in range(500):
            rows = rng.random((g, f)) < 0.5
            if (rows.sum(axis=1) >= 2).all() and rows.any(axis=0).all():
                break
        else:  # pragma: no cover - p(fail) vanishes for f >= 4
            raise ValueError("final stage sampling failed")
        lens = rows.sum(axis=1).astype(np.intp) + 1
        indptr = np.zeros(g + 1, dtype=np.intp)
        np.cumsum(lens, out=indptr[1:])
        flat = np.empty(int(indptr[-1]), dtype=np.intp)
        flat[indptr[:-1]] = check_ids
        is_left = np.ones(flat.size, dtype=bool)
        is_left[indptr[:-1]] = False
        gi, li = np.nonzero(rows)
        flat[np.arange(flat.size, dtype=np.intp)[is_left]] = left_ids[li]
        parts.append(flat)
        len_parts.append(lens)
    level_ranges.append((cons_so_far, cons_so_far + 2 * g))

    all_lens = np.concatenate(len_parts)
    indptr = np.zeros(all_lens.size + 1, dtype=np.intp)
    np.cumsum(all_lens, out=indptr[1:])
    return CsrGraph(
        num_nodes=plan.num_nodes,
        data_nodes=np.arange(num_data, dtype=np.intp),
        con_nodes=np.concatenate(parts),
        con_indptr=indptr,
        name=name or f"tornado-csr-n{num_data}-seed{seed}",
        level_ranges=tuple(level_ranges),
    )
